package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"awakemis"
)

// TestDecodeFile holds -batch and -study files to one strict decoding:
// an unknown key or data after the JSON value fails the file instead
// of running it with defaults.
func TestDecodeFile(t *testing.T) {
	const study = `{"name":"s","tasks":["luby"],"sizes":[32,64],"seed":1,"options":{"strict":true}}`
	cases := []struct {
		name    string
		body    string
		study   bool
		wantErr string
	}{
		{"unknown key", `[{"task":"luby","graph":{"family":"gnp","n":64},"optoins":{"seed":3,"strict":true}}]`, false, `unknown field "optoins"`},
		{"study trailing data", study + `{"tasks":["vt-mis"]}`, true, "trailing data"},
		{"batch trailing data", `[{"task":"luby"}] x`, false, "trailing data"},
		{"valid batch", "[{\"task\":\"luby\",\"graph\":{\"n\":64},\"options\":{\"seed\":3}}]\n", false, ""},
		{"valid study", study + "\n", true, ""},
	}
	dir := t.TempDir()
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			if tc.study {
				var ss awakemis.StudySpec
				if err = decodeFile(path, &ss); err == nil && len(ss.Tasks) != 1 {
					t.Errorf("case %d: decoded tasks %v", i, ss.Tasks)
				}
			} else {
				var specs []awakemis.Spec
				if err = decodeFile(path, &specs); err == nil && (len(specs) != 1 || specs[0].Options.Seed != 3) {
					t.Errorf("case %d: decoded specs %+v", i, specs)
				}
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
