package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/asppbench/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden/")

// goldenRun executes one asppbench invocation and returns its full output.
func goldenRun(t *testing.T, args ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.Bytes()
}

// TestGoldenFigures pins the exact TSV output of the fig5/fig6 (prepending
// usage survey), fig9 (λ sweep), fig13/fig14 (detection accuracy and
// pollution before detection) and defense (§VIII monitor placement)
// experiments at a fixed topology and seed. Any engine or model change that shifts a
// single pollution count, rank, fraction or percentage shows up as a byte
// diff here; intentional changes are re-pinned with -update. The fig5/fig6
// goldens were pinned with the serial survey table leg, so they also hold
// the lane-batched leg the survey now always runs to the serial bytes.
func TestGoldenFigures(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{name: "fig5", args: []string{"-exp", "fig5", "-n", "400", "-seed", "1"}},
		{name: "fig6", args: []string{"-exp", "fig6", "-n", "400", "-seed", "1"}},
		{name: "fig9", args: []string{"-exp", "fig9", "-n", "400", "-seed", "1"}},
		{name: "fig13", args: []string{"-exp", "fig13", "-n", "400", "-seed", "1", "-pairs", "20"}},
		{name: "fig14", args: []string{"-exp", "fig14", "-n", "400", "-seed", "1", "-pairs", "20"}},
		{name: "defense", args: []string{"-exp", "defense", "-n", "400", "-seed", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenRun(t, tc.args...)
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (re-pin with -update if intended)\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}

// TestGoldenEngineAgreement: the -engine ablation flag must not change any
// emitted number — full recomputation and delta propagation produce
// byte-identical figures.
func TestGoldenEngineAgreement(t *testing.T) {
	base := []string{"-exp", "fig9", "-n", "400", "-seed", "1"}
	full := goldenRun(t, append([]string{"-engine", "full"}, base...)...)
	delta := goldenRun(t, append([]string{"-engine", "delta"}, base...)...)
	if !bytes.Equal(full, delta) {
		t.Errorf("-engine full and -engine delta disagree\nfull:\n%s\ndelta:\n%s", full, delta)
	}
}

// TestSharedInputsMatchSingleRuns: experiments that share an input within
// one run (fig5/fig6 the usage survey, fig13/fig14 the top-degree
// detection outcome, fig13/inference the inferred relationships) print
// exactly what each prints when it runs alone and computes the input
// itself, whichever of them runs first.
func TestSharedInputsMatchSingleRuns(t *testing.T) {
	common := []string{"-n", "400", "-seed", "1", "-pairs", "20"}
	for _, list := range []string{"fig5,fig6,fig13,fig14,inference", "fig14,inference,fig6,fig13,fig5"} {
		var want []byte
		for _, exp := range strings.Split(list, ",") {
			want = append(want, goldenRun(t, append([]string{"-exp", exp}, common...)...)...)
		}
		got := goldenRun(t, append([]string{"-exp", list}, common...)...)
		if !bytes.Equal(got, want) {
			t.Errorf("-exp %s differs from its single-experiment runs concatenated\ngot:\n%s\nwant:\n%s", list, got, want)
		}
	}
}
