package awakemis_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"awakemis"
)

// plainOutput is Output without its methods: encoding/json decodes it
// field by field, the reference for Output's own decoder.
type plainOutput awakemis.Output

// FuzzOutputJSON checks Output.UnmarshalJSON against encoding/json. For
// valid JSON both must succeed or fail together and leave the same
// value, starting from an Output with every field set so that absent
// keys are checked too; invalid JSON must fail.
func FuzzOutputJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "report_golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var rep struct {
		Output json.RawMessage `json:"output"`
	}
	if err := json.Unmarshal(golden, &rep); err != nil {
		f.Fatal(err)
	}
	compact, err := json.Marshal(fullReport().Output)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		rep.Output, // indented, as Report.JSON writes it
		compact,
		[]byte(`{"in_mis":[]}`),
		[]byte(`[]`),
		[]byte(`null`),
		[]byte(`{"in_mis":[true,]}`),
		[]byte(`{"in_mis":[true,fals]}`),
		[]byte(`{"in_mis":[truefalse]}`),
		[]byte(`{"in_mis": [true, false]}`),
		[]byte(`{"IN_MIS":[true]}`),
		[]byte(`{"in_mis":[true],"in_mis":[false,false]}`),
		[]byte(`{"color":[0,2,1]}`),
		[]byte(`{"matched_with":[1,0,-1]}`),
	} {
		f.Add(seed)
	}
	full := func() awakemis.Output {
		return awakemis.Output{InMIS: []bool{true, false}, Color: []int{3}, MatchedWith: []int{-1, 0}}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := full()
		gotErr := got.UnmarshalJSON(data)
		if !json.Valid(data) {
			if gotErr == nil {
				t.Fatalf("invalid JSON %q decoded to %+v", data, got)
			}
			return
		}
		want := plainOutput(full())
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: UnmarshalJSON error %v, encoding/json error %v", data, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, awakemis.Output(want)) {
			t.Fatalf("%q: UnmarshalJSON gave %#v, encoding/json %#v", data, got, awakemis.Output(want))
		}
	})
}
