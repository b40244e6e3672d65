// Package service is the job-queue layer of the awakemisd daemon: it
// accepts Specs over HTTP, deduplicates them through a
// content-addressed report cache with in-flight coalescing
// (singleflight), executes them on a bounded worker pool via the
// public awakemis.Run facade, and serves the resulting Reports. On
// top of jobs it serves studies (POST /v1/studies): declarative
// parameter-sweep grids whose cells execute as ordinary jobs — so
// repeated and overlapping sweeps coalesce through the same cache —
// and aggregate server-side into StudyResult artifacts.
//
// The subsystem exploits the determinism contract of the simulator:
// a resolved (Spec, seed, engine) triple always produces the same
// Report (up to wall time), so equal canonical specs can share one
// simulation and cached bytes can be served forever. Config.Workers
// bounds how many simulations run at once; each sizes its engine's
// worker pool from GOMAXPROCS, which no Report depends on.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"awakemis"
)

// Canonicalize returns the spec in canonical form: every default
// filled in, the graph seed resolved, and result-irrelevant knobs
// zeroed, so that two specs hash equal exactly when they would
// execute the same simulation and label its report the same way.
//
// The rules (also documented in the README, "Canonical specs and the
// report cache"):
//
//   - Graph.Family is lowercased (Generate matches case-insensitively)
//     and "" becomes "gnp"; Graph.N 0 becomes 1024; family
//     parameters the family ignores are zeroed, and the ones it reads
//     get their Generate defaults (P = 4/n for gnp, Degree = 4 for
//     regular/powerlaw, Radius = 0.1 for geometric).
//   - Graph.Seed 0 resolves to Options.Seed (the substitution
//     GraphSpec already performs at build time).
//   - Options.Engine "" becomes "stepped". Options.Trace and
//     Options.Observer are zeroed: traces and observers never reach
//     the wire. Options.RoundSummary is kept — it adds a
//     (deterministic) block to the report bytes, so summarized and
//     plain submissions cache separately.
//   - Options.Seed is taken literally (Run runs seed 0 as seed 0),
//     as are N, Bandwidth, Strict, MaxRounds, and Params. Name is kept
//     verbatim: it is part of the Report, so differently named
//     submissions are cached separately.
//
// Canonicalization is sound but not complete: equal canonical specs
// always produce identical reports, while some distinct canonical
// specs (say, an explicit Options.N equal to the node count versus a
// zero one) may too — they just cache separately.
func Canonicalize(spec awakemis.Spec) awakemis.Spec {
	c := spec

	family := strings.ToLower(c.Graph.Family)
	if family == "" {
		family = "gnp"
	}
	n := c.Graph.N
	if n <= 0 {
		n = 1024
	}
	g := awakemis.GraphSpec{Family: family, N: n}
	switch family {
	case "gnp":
		g.P = c.Graph.P
		if g.P == 0 {
			// Generate's default edge probability, clamped: 4/n exceeds 1
			// for n < 4, where it means the same graph as p = 1 but would
			// fail validation.
			g.P = min(1, 4/float64(n))
		}
	case "regular", "powerlaw":
		g.Degree = c.Graph.Degree
		if g.Degree == 0 {
			g.Degree = 4
		}
	case "geometric":
		g.Radius = c.Graph.Radius
		if g.Radius == 0 {
			g.Radius = 0.1
		}
	}
	g.Seed = c.Graph.Seed
	if g.Seed == 0 {
		g.Seed = c.Options.Seed
	}
	c.Graph = g

	if c.Options.Engine == "" {
		c.Options.Engine = awakemis.EngineStepped
	}
	c.Options.Trace = false
	c.Options.Observer = nil
	return c
}

// Hash returns the spec's content address: the hex SHA-256 of the
// canonical spec's JSON encoding. Struct fields marshal in their
// (frozen, golden-tested) declaration order, so the encoding — and
// therefore the hash — is stable across processes and releases.
func Hash(spec awakemis.Spec) (string, error) {
	return hashCanonical(Canonicalize(spec))
}

// hashCanonical hashes a spec that is already in canonical form (the
// Server calls it with the Canonicalize result it stores, so the two
// can never drift apart).
func hashCanonical(canonical awakemis.Spec) (string, error) {
	data, err := json.Marshal(canonical)
	if err != nil {
		return "", fmt.Errorf("service: hashing spec: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
