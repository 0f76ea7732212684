package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	// Each experiment must run on a small topology and emit its header.
	tests := []struct {
		exp  string
		want string
	}{
		{exp: "fig1", want: "69.171.224.0/20"},
		{exp: "table1", want: "traceroute"},
		{exp: "fig5", want: "frac_prefixes_with_prepending"},
		{exp: "fig6", want: "prepend_count"},
		{exp: "fig7", want: "pct_after"},
		{exp: "fig8", want: "pct_after"},
		{exp: "fig9", want: "lambda"},
		{exp: "fig10", want: "lambda"},
		{exp: "fig11", want: "pct_violate_policy"},
		{exp: "fig12", want: "pct_violate_policy"},
		{exp: "fig13", want: "pct_detected"},
		{exp: "fig14", want: "frac_polluted_before_detection"},
	}
	for _, tt := range tests {
		t.Run(tt.exp, func(t *testing.T) {
			var sb strings.Builder
			err := run(context.Background(), []string{"-exp", tt.exp, "-n", "400", "-pairs", "20"}, &sb)
			if err != nil {
				t.Fatalf("run(%s): %v", tt.exp, err)
			}
			if !strings.Contains(sb.String(), tt.want) {
				t.Errorf("output missing %q:\n%s", tt.want, sb.String())
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "all", "-n", "400", "-pairs", "15"}, &sb); err != nil {
		t.Fatalf("run(all): %v", err)
	}
	out := sb.String()
	for _, name := range []string{"fig1", "table1", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14"} {
		if !strings.Contains(out, "### "+name+"\n") {
			t.Errorf("missing section %s", name)
		}
	}
	// Paper order: fig1 before fig5 before fig13.
	if strings.Index(out, "### fig1\n") > strings.Index(out, "### fig5") {
		t.Error("experiments out of order")
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig99"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunCommaList(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig9, fig12", "-n", "400"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "### fig9") || !strings.Contains(sb.String(), "### fig12") {
		t.Error("comma list not honored")
	}
}

func TestRunExtensionExperiments(t *testing.T) {
	tests := []struct {
		exp  string
		want string
	}{
		{exp: "compare", want: "aspp-interception"},
		{exp: "defense", want: "greedy"},
		{exp: "inference", want: "classified_links"},
		{exp: "mitigation", want: "deploy_frac"},
	}
	for _, tt := range tests {
		t.Run(tt.exp, func(t *testing.T) {
			var sb strings.Builder
			if err := run(context.Background(), []string{"-exp", tt.exp, "-n", "400"}, &sb); err != nil {
				t.Fatalf("run(%s): %v", tt.exp, err)
			}
			if !strings.Contains(sb.String(), tt.want) {
				t.Errorf("output missing %q:\n%s", tt.want, sb.String())
			}
		})
	}
}

func TestRunSusceptibility(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "susceptibility", "-n", "400"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "victim_tier") {
		t.Errorf("missing header:\n%s", sb.String())
	}
}

func TestRunOutDir(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig9,fig12", "-n", "400", "-out", dir}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range []string{"fig9.tsv", "fig12.tsv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s not written: %v", name, err)
		}
		if !strings.Contains(string(data), "lambda") {
			t.Errorf("%s missing header", name)
		}
	}
}

// TestRunBatchFlagValidation: the lane-width knob is gone — the survey
// batches automatically and the attack legs always run serially — so
// -batch must fail as an unknown flag rather than be silently ignored.
func TestRunBatchFlagValidation(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-exp", "fig9", "-n", "400", "-batch", "8"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -batch") {
		t.Errorf("-batch 8: want an unknown-flag error, got %v", err)
	}
}

func TestRunShardFlagValidation(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-exp", "fig9", "-n", "400", "-shards", "-2"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Errorf("-shards -2: want a shard-count error, got %v", err)
	}
	for _, bad := range []string{"0", "-5", "x", "12Q", "M"} {
		err := run(context.Background(), []string{"-exp", "fig9", "-n", "400", "-mem-budget", bad}, &sb)
		if err == nil || !strings.Contains(err.Error(), "-mem-budget") {
			t.Errorf("-mem-budget %q: want a budget error, got %v", bad, err)
		}
	}
	cases := map[string]int64{"65536": 65536, "4k": 4 << 10, "512M": 512 << 20, "2G": 2 << 30}
	for in, want := range cases {
		if got, err := parseMemBudget(in); err != nil || got != want {
			t.Errorf("parseMemBudget(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	if got, err := parseMemBudget(""); err != nil || got != 0 {
		t.Errorf("parseMemBudget(\"\") = %d, %v; want 0 (no budget)", got, err)
	}
}

// TestRunShardByteIdentical pins the tentpole acceptance contract at the
// CLI boundary: sweep TSVs must be byte-identical at any shard count and
// under a per-shard memory budget.
func TestRunShardByteIdentical(t *testing.T) {
	const exps = "fig7,fig9,susceptibility"
	runWith := func(extra ...string) string {
		var sb strings.Builder
		args := append([]string{"-exp", exps, "-n", "400"}, extra...)
		if err := run(context.Background(), args, &sb); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		return sb.String()
	}
	unsharded := runWith()
	for _, shards := range []string{"1", "2", "7", "32"} {
		if got := runWith("-shards", shards, "-mem-budget", "64k"); got != unsharded {
			t.Errorf("-shards %s output differs from unsharded:\n got: %s\nwant: %s", shards, got, unsharded)
		}
	}
	if got := runWith("-mem-budget", "512M"); got != unsharded {
		t.Errorf("-mem-budget alone differs from unsharded:\n got: %s\nwant: %s", got, unsharded)
	}
}
