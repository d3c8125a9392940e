package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lightzone/internal/replay"
	"lightzone/internal/workload"
)

// TestMain runs the command itself when the test binary is re-executed
// with lzbenchMainEnv set, so tests can check exit codes and files.
func TestMain(m *testing.M) {
	if os.Getenv(lzbenchMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const lzbenchMainEnv = "LZBENCH_TEST_RUN_MAIN"

// runMain runs lzbench with args in a child process and returns its exit
// code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), lzbenchMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

func newBench(width int) *bench { return &bench{fleet: workload.NewFleet(width)} }

// A recorded run replays byte-identically at another fleet width, and the
// journal carries the config the run was given.
func TestRecordThenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table5.journal")
	cfg := replay.RunConfig{
		Suites: []string{"table5"}, Iters: 200, Seed: workload.Table5Seed, Parallel: 2,
		Arrival: "poisson", DurationS: 1, // serve settings of a run without the serve suite
	}
	rec := newBench(2)
	if err := rec.runRecord(path, cfg); err != nil {
		t.Fatal(err)
	}
	j, err := replay.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := replay.RunConfig{Suites: []string{"table5"}, Iters: 200, Seed: workload.Table5Seed, Parallel: 2}
	if !slices.Equal(j.Config.Suites, want.Suites) || j.Config.Iters != want.Iters ||
		j.Config.Seed != want.Seed || j.Config.Parallel != want.Parallel ||
		j.Config.Arrival != "" || j.Config.DurationS != 0 {
		t.Errorf("journal config = %+v, want %+v", j.Config, want)
	}
	if len(j.Rows) == 0 || !slices.Equal(j.Rows, rec.capture) {
		t.Fatalf("journal holds %d rows, run emitted %d", len(j.Rows), len(rec.capture))
	}
	rep := newBench(1)
	if err := rep.runReplay(path); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.capture, j.Rows) {
		t.Error("replayed rows differ from the recorded rows")
	}
}

// The committed journals replay byte-identically. The two oldest predate
// the config-only format: they still carry an "inputs" section, which
// reading ignores.
func TestReplayCommittedJournals(t *testing.T) {
	for _, name := range []string{"seed_pr6.journal", "serve_pr7.journal", "backends_pr19.journal"} {
		t.Run(name, func(t *testing.T) {
			if err := newBench(2).runReplay(filepath.Join("..", "..", "testdata", name)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReplayRejectsForeignSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.journal")
	j := &replay.Journal{
		Version: replay.Version,
		Kind:    replay.KindBench,
		Config:  replay.RunConfig{Suites: []string{"table5"}, Iters: 200, Seed: workload.Table5Seed + 1, Parallel: 1},
		Rows:    []string{`{"kind":"table5"}`},
	}
	j.Seal()
	if err := j.Write(path); err != nil {
		t.Fatal(err)
	}
	b := newBench(1)
	err := b.runReplay(path)
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("replay of a foreign-seed journal: err = %v", err)
	}
	if len(b.capture) != 0 {
		t.Error("a foreign-seed journal ran its suites")
	}
}

// -serveout writes the serve cells, so without -serve it is refused before
// any suite runs and no file is written.
func TestServeOutNeedsServe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.json")
	code, stderr := runMain(t, "-table", "4", "-json", "-serveout", path)
	if code != 1 || !strings.Contains(stderr, "-serve") {
		t.Errorf("-serveout without -serve: exit %d, stderr %q; want exit 1 naming -serve", code, stderr)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-serveout without -serve wrote %s (stat err %v)", path, err)
	}
}

// A replay runs the journal's suites, not the flags', so -serve -replay J
// with a journal J that has no serve suite collects no serve cell:
// -serveout then fails, names the suites that ran and writes no file.
func TestServeOutNeedsServeCells(t *testing.T) {
	dir := t.TempDir()
	journal, out := filepath.Join(dir, "table4.journal"), filepath.Join(dir, "serve.json")
	if code, stderr := runMain(t, "-table", "4", "-json", "-record", journal); code != 0 {
		t.Fatalf("recording table4: exit %d, stderr %q", code, stderr)
	}
	code, stderr := runMain(t, "-serve", "-replay", journal, "-serveout", out)
	if code != 1 || !strings.Contains(stderr, "table4") {
		t.Errorf("-serveout after a replay without serve: exit %d, stderr %q; want exit 1 naming the suite table4", code, stderr)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-serveout after a replay without serve wrote %s (stat err %v)", out, err)
	}
}
