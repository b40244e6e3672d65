package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"strings"

	"awakemis"
)

//go:embed reference.json
var referenceJSON []byte

// reference holds the output digests of the default seed, keyed by
// size, workload and output.
type reference struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// checker counts checked ops and compares output digests with the
// reference (at the default seed) and with the first copy of the same
// output in this run (at every seed).
type checker struct {
	size              string
	ref               map[string]string
	first             map[string]string
	seen              map[string]bool
	attempted, failed int
	problems          []string
}

func newChecker(cfg config) (*checker, error) {
	c := &checker{size: cfg.Size, first: map[string]string{}, seen: map[string]bool{}}
	if cfg.Seed != defaultSeed || cfg.WriteRef != "" {
		return c, nil
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reading reference.json: %w", err)
	}
	if ref.Seed != defaultSeed {
		return nil, fmt.Errorf("reference.json holds seed %d, want %d", ref.Seed, defaultSeed)
	}
	c.ref = ref.Digests
	return c, nil
}

// digest hashes a Report or StudyResult encoding with its wall_ms
// value, the one nondeterministic field, read as 0.
func digest(data []byte) string {
	h := sha256.New()
	key := []byte(`"wall_ms":`)
	if i := bytes.LastIndex(data, key); i >= 0 {
		j := i + len(key)
		k := j
		for k < len(data) && strings.IndexByte("+-.0123456789eE", data[k]) >= 0 {
			k++
		}
		h.Write(data[:j])
		h.Write([]byte("0"))
		h.Write(data[k:])
	} else {
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// same checks data against the reference digest of key and against
// the first copy of key this run produced.
func (c *checker) same(key string, data []byte) error {
	key = c.size + "/" + key
	d := digest(data)
	if c.ref != nil {
		want, ok := c.ref[key]
		if !ok {
			return fmt.Errorf("%s: no reference digest", key)
		}
		if d != want {
			return fmt.Errorf("%s: digest %.12s differs from the reference %.12s", key, d, want)
		}
	}
	prev, ok := c.first[key]
	if !ok {
		c.first[key] = d
	} else if d != prev {
		return fmt.Errorf("%s: digest %.12s differs from the run's first copy %.12s", key, d, prev)
	}
	return nil
}

// once reports whether key is seen for the first time.
func (c *checker) once(key string) bool {
	if c.seen[key] {
		return false
	}
	c.seen[key] = true
	return true
}

// op counts one checked op; any error fails it.
func (c *checker) op(name string, errs []error) {
	c.attempted++
	if len(errs) == 0 {
		return
	}
	c.failed++
	for _, err := range errs {
		c.problems = append(c.problems, name+": "+err.Error())
	}
}

// writeReference merges this run's first-copy digests into the
// reference file at path.
func (c *checker) writeReference(path string) error {
	ref := reference{Seed: defaultSeed}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &ref); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if ref.Digests == nil {
		ref.Digests = map[string]string{}
	}
	maps.Copy(ref.Digests, c.first)
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// collect appends the non-nil errors to errs.
func collect(errs []error, more ...error) []error {
	for _, err := range more {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// generate builds a spec's graph through the facade, as Run does for a
// spec with an explicit family and graph seed (every spec here has
// both).
func generate(gs awakemis.GraphSpec) (*awakemis.Graph, error) {
	return awakemis.Generate(gs.Family, awakemis.GenOptions{N: gs.N, P: gs.P, Degree: gs.Degree, Radius: gs.Radius, Seed: gs.Seed})
}

// verifyMIS regenerates a spec's graph and checks inMIS on it with the
// library's MIS oracle: the benchmark's own check, independent of the
// verified flag a Report carries.
func verifyMIS(gs awakemis.GraphSpec, inMIS []bool, tr *tracer) error {
	g, err := generate(gs)
	if err != nil {
		return err
	}
	sp := tr.begin("verify.check", -1)
	err = awakemis.Verify(g, inMIS)
	tr.end(sp)
	return err
}

// corrupt flips node 0 of the Report's MIS and re-encodes it: a wrong
// result the output check must count as a failed op.
func corrupt(rep *awakemis.Report) ([]byte, error) {
	rep.Output.InMIS[0] = !rep.Output.InMIS[0]
	return json.Marshal(rep)
}
