package awakemis_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"awakemis"
)

// goldenDigests pins the SHA-256 of each Report's JSON encoding (wall_ms
// read as 0) for the MIS tasks built on the LDT tree machinery, so any
// change to a wake, message, bit count or RNG draw shows up as a digest
// mismatch. A refactor or optimization must leave every digest as it
// is. Keys are task/family/n/seed; every key is checked at workers 1
// and 4, and the "vec" keys are the per-lane Reports of one
// WithVectorizedTrials call.
var goldenDigests = map[string]string{
	"awake-mis-round/geometric/160/1": "1ab42e45b56844e664589a5487b26a808ce7fccf499ab3c4271bd31329854b58",
	"awake-mis-round/geometric/160/2": "86c852cfe88f7d4e457c46c6d37f86291cc645cd6a69dbdd6926de057a909eac",
	"awake-mis-round/gnp/160/1":       "19bb4bce660bf485181848f2876ddaf6d9affe43d04f48a11690414fbd9efb0a",
	"awake-mis-round/gnp/160/2":       "53ac3261fd13f3437a9fb0ce6c1d19194506db9b43398a62c425641b19136e23",
	"awake-mis-round/regular/160/1":   "727cbedf6380553fbaf5cdc7b5f829acb5d2a0d68afc5b2e02ba0621f9dac3ae",
	"awake-mis-round/regular/160/2":   "d5ff608bc789d11d0dcabaa904be588b6afc6b03841e8a2fbb997daa252c8dac",
	"awake-mis/geometric/160/1":       "d0749e0cdfec479ce3e4630ed138a638a728023da9048fe479573af3bb2df8a4",
	"awake-mis/geometric/160/2":       "e9f11ae972e3f57e7ac3ea2f45751ef787d4d54bd2f107d0e1f1b8452a87777d",
	"awake-mis/gnp/160/1":             "a07506a264428609dcea412838e2117d7e5b6608d03b42c743ebec9498279ea3",
	"awake-mis/gnp/160/2":             "eb5a70b83f94d24baf995653e34f48051b99005a6e4f8ff69ec975482134e9ce",
	"awake-mis/regular/160/1":         "1d17504b92e1401794c5e3d1b85a2d4103f52670fe21c17196b103af707097bb",
	"awake-mis/regular/160/2":         "715c03a58327b6f37439b5d0cf09ce4a59b0b0a0366040559b897f1e3d10cd06",
	"ldt-mis/geometric/160/1":         "29191ea02e84c37e69fdcf77607746a1c0f430804b5a43dbb904e5612065d7d4",
	"ldt-mis/geometric/160/2":         "a87742e39dd15841d6cc5546920eb1fdd584ca5b18919ae353543e0389f28085",
	"ldt-mis/gnp/1024/3":              "159e37bf7d0762213228957d1844959c3c52867cb3cc8996a2b24c8755b55727",
	"ldt-mis/gnp/160/1":               "0f99d16c72a9976b4524078ce65a7f2e1346adf6fc925e5ce511e95a3f3321d9",
	"ldt-mis/gnp/160/2":               "64745ff546c0c4bc200d61d457e003e0bae36df19f8da48579d373879010b697",
	"ldt-mis/regular/160/1":           "9dc2be99ec129d9461ae9184e0e29d606e67680dffcd457e56a680d7fbafba4b",
	"ldt-mis/regular/160/2":           "3f1e4b75f1aabf2f000e558093950384915f19f5229d35de68ee1422abe5a2fd",
	"vec/awake-mis/geometric/160/11":  "b8c8457d65465a7b0e0dead64006e7f8d050bfa3bdf601fff79cf4d17dd998bb",
	"vec/awake-mis/geometric/160/12":  "9f14a6de838e3e9c13809b05d6ab1c6165033def932a795a4f0fb31ff3ad1b19",
	"vec/awake-mis/geometric/160/13":  "6575ba18e2ccf1248b08b80c33741c495b530abd5c69f6c74c04160316b13f66",
	"vec/awake-mis/gnp/160/11":        "fd71dc8aa972ba4263869299869b6ada5fbf60e81309f5e954412618ab4d9621",
	"vec/awake-mis/gnp/160/12":        "15e7ce4244f9d05a78d55773d1ba15970dcc7ac9871ac552a91c2f5678dd717d",
	"vec/awake-mis/gnp/160/13":        "780abc21d46fdd6f42da669b17cae5c0c6ec0d5f2f08babc37d45de45fb4a9b4",
	"vt-mis/geometric/160/1":          "ea42626984440f834aa4d7713a7b05106b51a2528e0e4734c14727db9b52ecdb",
	"vt-mis/geometric/160/2":          "3686ea551b8e981b46341015ee9ef2f392048341c25ae5e3ecac5f124a0c4416",
	"vt-mis/gnp/160/1":                "2de6672b1302fac5582ca5536323a5ee539dbb0e0642f57f6100eac49b8b3d50",
	"vt-mis/gnp/160/2":                "4657dd2911f0082c31e2464900f9a154477908d63afeb278c5235bd7ce7f4d6d",
	"vt-mis/regular/160/1":            "c11db0b061756e994229c2d5dd6e4b83480f0bacf86461fd64be8cd7295f7aeb",
	"vt-mis/regular/160/2":            "293809b1377a9fd8cb3c18608e810c867f5aad211d34418a3f4888c812fe2919",
}

// goldenDigest hashes a Report's JSON with its wall_ms value, the one
// nondeterministic field, read as 0.
func goldenDigest(t *testing.T, rep *awakemis.Report) string {
	t.Helper()
	r := *rep
	r.WallMS = 0
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

type goldenCase struct {
	task    string
	graph   awakemis.GraphSpec
	seed    int64
	workers []int
}

func (c goldenCase) key() string {
	return fmt.Sprintf("%s/%s/%d/%d", c.task, c.graph.Family, c.graph.N, c.seed)
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	families := []awakemis.GraphSpec{
		{Family: "gnp", N: 160},
		{Family: "geometric", N: 160},
		{Family: "regular", N: 160, Degree: 4},
	}
	for _, task := range []string{"awake-mis", "awake-mis-round", "ldt-mis", "vt-mis"} {
		for _, gs := range families {
			for _, seed := range []int64{1, 2} {
				cases = append(cases, goldenCase{task: task, graph: gs, seed: seed, workers: []int{1, 4}})
			}
		}
	}
	// A graph large enough that the engine fans LDT rounds across
	// worker shards (it does so only when ≥ 128 nodes are awake).
	cases = append(cases, goldenCase{
		task: "ldt-mis", graph: awakemis.GraphSpec{Family: "gnp", N: 1024}, seed: 3, workers: []int{4, 1},
	})
	return cases
}

func TestGoldenReportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digests run the full MIS pipelines")
	}
	ctx := context.Background()
	var missing []string
	seen := map[string]bool{}
	// check pins one key: every worker count must produce the digest
	// the first one did, and that digest must be the pinned one.
	check := func(key string, byWorkers map[int]string, workers []int) {
		seen[key] = true
		first := byWorkers[workers[0]]
		for _, w := range workers[1:] {
			if byWorkers[w] != first {
				t.Errorf("%s: workers=%d digest %s differs from workers=%d digest %s", key, w, byWorkers[w], workers[0], first)
			}
		}
		want, ok := goldenDigests[key]
		switch {
		case !ok:
			missing = append(missing, fmt.Sprintf("\t%q: %q,", key, first))
		case first != want:
			t.Errorf("%s: digest %s, want %s", key, first, want)
		}
	}

	for _, c := range goldenCases() {
		byWorkers := map[int]string{}
		for _, w := range c.workers {
			spec := awakemis.Spec{Task: c.task, Graph: c.graph, Options: awakemis.Options{Seed: c.seed}}
			rep, err := awakemis.Run(ctx, spec, awakemis.WithWorkers(w))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.key(), w, err)
			}
			byWorkers[w] = goldenDigest(t, rep)
		}
		check(c.key(), byWorkers, c.workers)
	}

	// awake-mis lanes of one merged pass (R = 3), at both worker counts.
	workers := []int{1, 4}
	trials := []awakemis.Trial{{Seed: 11}, {Seed: 12}, {Seed: 13}}
	for _, gs := range []awakemis.GraphSpec{
		{Family: "gnp", N: 160, Seed: 7},
		{Family: "geometric", N: 160, Seed: 8},
	} {
		byLane := make([]map[int]string, len(trials))
		for i := range byLane {
			byLane[i] = map[int]string{}
		}
		for _, w := range workers {
			out := make([]*awakemis.Report, len(trials))
			spec := awakemis.Spec{Task: "awake-mis", Graph: gs}
			if _, err := awakemis.Run(ctx, spec, awakemis.WithWorkers(w), awakemis.WithVectorizedTrials(trials, out)); err != nil {
				t.Fatalf("vectorized %s workers=%d: %v", gs.Family, w, err)
			}
			for i, rep := range out {
				byLane[i][w] = goldenDigest(t, rep)
			}
		}
		for i, tr := range trials {
			check(fmt.Sprintf("vec/awake-mis/%s/%d/%d", gs.Family, gs.N, tr.Seed), byLane[i], workers)
		}
	}

	for key := range goldenDigests {
		if !seen[key] {
			t.Errorf("pinned digest %s is no longer produced", key)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("no pinned digest for %d keys; table entries:\n%s", len(missing), strings.Join(missing, "\n"))
	}
}
