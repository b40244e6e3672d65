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
// read as 0) for every task, so any change to a wake, message, bit
// count or RNG draw shows up as a digest mismatch. A refactor or
// optimization must leave every digest as it is. Keys are
// task/family/n/seed, with a /g<seed> segment before the run seed when
// the graph seed is explicit and a trailing /round-summary or /trace
// when that option is on; every key is checked at two worker counts.
var goldenDigests = map[string]string{
	"awake-mis-round/geometric/160/1":   "1ab42e45b56844e664589a5487b26a808ce7fccf499ab3c4271bd31329854b58",
	"awake-mis-round/geometric/160/2":   "86c852cfe88f7d4e457c46c6d37f86291cc645cd6a69dbdd6926de057a909eac",
	"awake-mis-round/gnp/160/1":         "19bb4bce660bf485181848f2876ddaf6d9affe43d04f48a11690414fbd9efb0a",
	"awake-mis-round/gnp/160/2":         "53ac3261fd13f3437a9fb0ce6c1d19194506db9b43398a62c425641b19136e23",
	"awake-mis-round/regular/160/1":     "727cbedf6380553fbaf5cdc7b5f829acb5d2a0d68afc5b2e02ba0621f9dac3ae",
	"awake-mis-round/regular/160/2":     "d5ff608bc789d11d0dcabaa904be588b6afc6b03841e8a2fbb997daa252c8dac",
	"awake-mis/geometric/160/1":         "d0749e0cdfec479ce3e4630ed138a638a728023da9048fe479573af3bb2df8a4",
	"awake-mis/geometric/160/2":         "e9f11ae972e3f57e7ac3ea2f45751ef787d4d54bd2f107d0e1f1b8452a87777d",
	"awake-mis/geometric/160/g8/11":     "b8c8457d65465a7b0e0dead64006e7f8d050bfa3bdf601fff79cf4d17dd998bb",
	"awake-mis/geometric/160/g8/12":     "9f14a6de838e3e9c13809b05d6ab1c6165033def932a795a4f0fb31ff3ad1b19",
	"awake-mis/geometric/160/g8/13":     "6575ba18e2ccf1248b08b80c33741c495b530abd5c69f6c74c04160316b13f66",
	"awake-mis/gnp/160/1":               "a07506a264428609dcea412838e2117d7e5b6608d03b42c743ebec9498279ea3",
	"awake-mis/gnp/160/1/round-summary": "6d4daaf8aabef4f6994ee27c7bfc6eb112f5db54d5f8f03feac4958b402cbf3b",
	"awake-mis/gnp/160/2":               "eb5a70b83f94d24baf995653e34f48051b99005a6e4f8ff69ec975482134e9ce",
	"awake-mis/gnp/160/g7/11":           "fd71dc8aa972ba4263869299869b6ada5fbf60e81309f5e954412618ab4d9621",
	"awake-mis/gnp/160/g7/12":           "15e7ce4244f9d05a78d55773d1ba15970dcc7ac9871ac552a91c2f5678dd717d",
	"awake-mis/gnp/160/g7/13":           "780abc21d46fdd6f42da669b17cae5c0c6ec0d5f2f08babc37d45de45fb4a9b4",
	"awake-mis/regular/160/1":           "1d17504b92e1401794c5e3d1b85a2d4103f52670fe21c17196b103af707097bb",
	"awake-mis/regular/160/2":           "715c03a58327b6f37439b5d0cf09ce4a59b0b0a0366040559b897f1e3d10cd06",
	"coloring/geometric/160/1":          "945a49c78a8e0268491862e1b48037fc218b8f6b5f400cfc841069d1cdbad75d",
	"coloring/geometric/160/2":          "24c990046a347a30375b82a9f379b7f9d4e05812b900dbd230f5b0100766d572",
	"coloring/gnp/160/1":                "16b00dc0ad6ee52bb1f201330e570f5db8599a57290afd1947351f37d8e46f5d",
	"coloring/gnp/160/2":                "79f21d7acb327c25226931573b61f702d336e082b033205c6aa97379b97c1a98",
	"coloring/regular/160/1":            "03b4837cecdf65e6d1e5adce2b07de363e98700ed4ece796c38e68f5244d8583",
	"coloring/regular/160/2":            "b8010f9d921c2ea199ce65b55b9c22a00084460286c869f230d1ceca43b6ce35",
	"ldt-mis/geometric/160/1":           "29191ea02e84c37e69fdcf77607746a1c0f430804b5a43dbb904e5612065d7d4",
	"ldt-mis/geometric/160/2":           "a87742e39dd15841d6cc5546920eb1fdd584ca5b18919ae353543e0389f28085",
	"ldt-mis/gnp/1024/3":                "159e37bf7d0762213228957d1844959c3c52867cb3cc8996a2b24c8755b55727",
	"ldt-mis/gnp/160/1":                 "0f99d16c72a9976b4524078ce65a7f2e1346adf6fc925e5ce511e95a3f3321d9",
	"ldt-mis/gnp/160/2":                 "64745ff546c0c4bc200d61d457e003e0bae36df19f8da48579d373879010b697",
	"ldt-mis/regular/160/1":             "9dc2be99ec129d9461ae9184e0e29d606e67680dffcd457e56a680d7fbafba4b",
	"ldt-mis/regular/160/2":             "3f1e4b75f1aabf2f000e558093950384915f19f5229d35de68ee1422abe5a2fd",
	"luby/geometric/160/1":              "6e06d09984f4d38617c8ec7aaf0072e64dbf94cec702da37b6eeaa6f1d4af8f3",
	"luby/geometric/160/2":              "4613d54519ebf5a19ce99dc07a3ae94041bbcfdc1eba3bce8f23be7812634db5",
	"luby/gnp/160/1":                    "3980937012421ec3e11a89845caff67500228a2679f458a3730c073828c8ce31",
	"luby/gnp/160/1/round-summary":      "432f490f6482a205021efd987229ac5d94896bf3cc0ad5bdce58ecf30ed10f0f",
	"luby/gnp/160/1/trace":              "5aeecf353c422196fdbe3921aaba4457b0bfd4366624630595e3b84b432aea44",
	"luby/gnp/160/2":                    "bbee026cc726c2b8c0184ea078e031a1596f5135898d93dd39a1dd2e4f854276",
	"luby/gnp/4096/5":                   "10ec2d14f1dcbe70a5545de39a14aeb8abfe0289a925398a1d6c3cc889d09abf",
	"luby/regular/160/1":                "6309a7b56a907c614238dae3d3c0f04e218733c7d622b37af020f050deab835d",
	"luby/regular/160/2":                "531dfca0e41ffd7c5d3423d81aafb57c9e10cead2d6ffb77a102891fd6c41856",
	"matching/geometric/160/1":          "8588e96aa034baf99124e5f74dcd938857d869ec80d9f12059d58e23c810a38a",
	"matching/geometric/160/2":          "c54677e6f4f56dcdd81e3e9b9148d84909ca6e0ee1fd09f851572152e8cd8a15",
	"matching/gnp/160/1":                "8e4698c411b42e0e06af12326320ced0634d23a0ca6a8366cbd9182f37ff8715",
	"matching/gnp/160/2":                "cd7cabe4fffa69cffb6c3e453e5e3728ff90cc64e9c7548344ff6ff8b486d0ca",
	"matching/regular/160/1":            "339c4f450fb637c7ea790905b849b35b450ac429f2b5e32601d7c0971cfba9bf",
	"matching/regular/160/2":            "951e9361b7afd6e35aebec43b7abff49271a03f0f987a506911dc68fca0a5fe7",
	"naive-greedy/geometric/160/1":      "792187f65e3375cd779a570543ea000393a7b5b81bab9d05e558b508963af2f0",
	"naive-greedy/geometric/160/2":      "b6446df8842c4bacdd3f207f35a8f956870dcc41ae8701551a86d061c67eea4d",
	"naive-greedy/gnp/160/1":            "a7bb19a065407c78c1f5c8ad1b56810a9c61b27e2ce868541475e4a5e22822a7",
	"naive-greedy/gnp/160/2":            "6dd791e19fdf401e7e59a2a9cc9f63914133637dc5ba0024ebabf4d9b37e591e",
	"naive-greedy/regular/160/1":        "cf480f6582a1d49830f7664803862935db03fbaeaf5d5757f8810bdf9f3f1aeb",
	"naive-greedy/regular/160/2":        "8bf69017ab769dbb8235c2bf75f60d79e8c83fb0047c9729cd258256853e1776",
	"vt-mis/geometric/160/1":            "ea42626984440f834aa4d7713a7b05106b51a2528e0e4734c14727db9b52ecdb",
	"vt-mis/geometric/160/2":            "3686ea551b8e981b46341015ee9ef2f392048341c25ae5e3ecac5f124a0c4416",
	"vt-mis/gnp/160/1":                  "2de6672b1302fac5582ca5536323a5ee539dbb0e0642f57f6100eac49b8b3d50",
	"vt-mis/gnp/160/2":                  "4657dd2911f0082c31e2464900f9a154477908d63afeb278c5235bd7ce7f4d6d",
	"vt-mis/regular/160/1":              "c11db0b061756e994229c2d5dd6e4b83480f0bacf86461fd64be8cd7295f7aeb",
	"vt-mis/regular/160/2":              "293809b1377a9fd8cb3c18608e810c867f5aad211d34418a3f4888c812fe2919",
}

// goldenDigest hashes a Report's JSON with its wall_ms value, the one
// nondeterministic field, read as 0. A traced Report's digest also
// covers its trace summary and timeline, which pin the order in which
// the engine reports awake rounds and messages to the tracer.
func goldenDigest(t *testing.T, rep *awakemis.Report, traced bool) string {
	t.Helper()
	r := *rep
	r.WallMS = 0
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(data)
	if traced {
		fmt.Fprintf(h, "\n%s\n%s", rep.TraceSummary(), rep.Timeline(8, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

type goldenCase struct {
	task    string
	graph   awakemis.GraphSpec
	seed    int64
	workers []int
	// roundSummary and trace switch on Options.RoundSummary and
	// Options.Trace, which pin the observer and tracer streams.
	roundSummary, trace bool
}

func (c goldenCase) key() string {
	k := fmt.Sprintf("%s/%s/%d", c.task, c.graph.Family, c.graph.N)
	if c.graph.Seed != 0 {
		k += fmt.Sprintf("/g%d", c.graph.Seed)
	}
	k += fmt.Sprintf("/%d", c.seed)
	if c.roundSummary {
		k += "/round-summary"
	}
	if c.trace {
		k += "/trace"
	}
	return k
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	families := []awakemis.GraphSpec{
		{Family: "gnp", N: 160},
		{Family: "geometric", N: 160},
		{Family: "regular", N: 160, Degree: 4},
	}
	tasks := []string{"awake-mis", "awake-mis-round", "ldt-mis", "vt-mis",
		"luby", "naive-greedy", "coloring", "matching"}
	for _, task := range tasks {
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
	// Dense luby rounds: every node is awake at first, so the early
	// rounds cross the shard threshold and grow the engine's inbox
	// storage.
	cases = append(cases, goldenCase{
		task: "luby", graph: awakemis.GraphSpec{Family: "gnp", N: 4096}, seed: 5, workers: []int{4, 1},
	})
	// Trials of one study cell: a shared explicit graph seed, re-seeded
	// runs.
	for _, gs := range []awakemis.GraphSpec{
		{Family: "gnp", N: 160, Seed: 7},
		{Family: "geometric", N: 160, Seed: 8},
	} {
		for _, seed := range []int64{11, 12, 13} {
			cases = append(cases, goldenCase{task: "awake-mis", graph: gs, seed: seed, workers: []int{1, 4}})
		}
	}
	// The observer and tracer streams.
	for _, task := range []string{"luby", "awake-mis"} {
		cases = append(cases, goldenCase{
			task: task, graph: awakemis.GraphSpec{Family: "gnp", N: 160}, seed: 1, workers: []int{1, 4}, roundSummary: true,
		})
	}
	cases = append(cases, goldenCase{
		task: "luby", graph: awakemis.GraphSpec{Family: "gnp", N: 160}, seed: 1, workers: []int{1, 4}, trace: true,
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
			spec := awakemis.Spec{Task: c.task, Graph: c.graph, Options: awakemis.Options{
				Seed: c.seed, RoundSummary: c.roundSummary, Trace: c.trace,
			}}
			rep, err := awakemis.Run(ctx, spec, awakemis.WithWorkers(w))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.key(), w, err)
			}
			byWorkers[w] = goldenDigest(t, rep, c.trace)
		}
		check(c.key(), byWorkers, c.workers)
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
