package workload

import (
	"fmt"
	"testing"

	"lightzone/internal/arm64"
)

// TestTable5CycleIdentityCacheOnOff runs Table 5 configurations with the
// host fastpaths, the decode cache and the trace compiler switched off in
// turn, and requires the measured emulated cycles to be bit-identical in
// every cell: each layer elides host-side work only. "notrace" keeps
// fastpaths and decode on, the one mixed combination no lzbench pipeline
// selects.
func TestTable5CycleIdentityCacheOnOff(t *testing.T) {
	cases := []struct {
		variant Variant
		domains int
	}{
		{VariantLZPAN, 1},
		{VariantLZTTBR, 2},
		{VariantLZTTBR, 8},
		{VariantWatchpoint, 2},
	}
	modes := []struct {
		name                      string
		noDecode, noFast, noTrace bool
	}{
		{"nodecode", true, false, false},
		{"nofastpath", false, true, false},
		{"neither", true, true, false},
		{"notrace", false, false, true},
	}
	measure := func(cfg DomainSwitchConfig, noTrace bool) (int64, error) {
		env, p, err := PrepareDomainSwitch(cfg)
		if err != nil {
			return 0, err
		}
		if noTrace {
			env.M.CPU.SetTraces(false)
		}
		if err := env.Run(p, DomainSwitchBudget(cfg)); err != nil {
			return 0, err
		}
		if p.Killed {
			return 0, fmt.Errorf("benchmark killed: %s", p.KillMsg)
		}
		return env.Measured()
	}
	for _, plat := range []Platform{
		{Prof: arm64.ProfileCarmel()},
		{Prof: arm64.ProfileCarmel(), Guest: true},
	} {
		for _, tc := range cases {
			cfg := DomainSwitchConfig{
				Platform: plat, Variant: tc.variant, Domains: tc.domains,
				Iters: 300, Seed: 42,
			}
			base, err := measure(cfg, false)
			if err != nil {
				t.Fatalf("%v %v/%d baseline: %v", plat, tc.variant, tc.domains, err)
			}
			for _, m := range modes {
				c := cfg
				c.DisableDecodeCache = m.noDecode
				c.DisableHostFastpaths = m.noFast
				got, err := measure(c, m.noTrace)
				if err != nil {
					t.Fatalf("%v %v/%d %s: %v", plat, tc.variant, tc.domains, m.name, err)
				}
				if got != base {
					t.Errorf("%v %v/%d: cycles differ with %s (%d) vs all-on (%d)",
						plat, tc.variant, tc.domains, m.name, got, base)
				}
			}
		}
	}
}

// TestPipelineInspectionCounters checks the lzinspect probe: a hot
// domain-switch run must be overwhelmingly served from the decode cache and
// record the invalidations the module performed.
func TestPipelineInspectionCounters(t *testing.T) {
	rep, err := RunPipelineInspection(Platform{Prof: arm64.ProfileCarmel()}, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheEnabled {
		t.Error("decode cache unexpectedly disabled")
	}
	s := rep.Stats
	if s.CodeHits == 0 || s.CodeMisses == 0 || rep.CachedBlocks == 0 {
		t.Errorf("implausible decode-cache counters: %+v, %d blocks", s, rep.CachedBlocks)
	}
	if s.CodeHits < 10*s.CodeMisses {
		t.Errorf("hot run should hit the decode cache >90%%: %d hits / %d misses",
			s.CodeHits, s.CodeMisses)
	}
	if s.TLBHits == 0 {
		t.Error("no TLB hits recorded in shared stats")
	}
	if s.CodeInvalidations == 0 {
		t.Error("sanitizer/lz_prot flows recorded no code invalidations")
	}
	if rep.TraceSummary == "" {
		t.Error("empty trace summary")
	}
}

// BenchmarkGateSwitchHost measures the host wall-clock of the full TTBR
// call-gate microbenchmark with the decoded-block cache on and off.
func BenchmarkGateSwitchHost(b *testing.B) {
	for _, mode := range []struct {
		name string
		off  bool
	}{{"cache-on", false}, {"cache-off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := RunDomainSwitch(DomainSwitchConfig{
					Platform: Platform{Prof: arm64.ProfileCarmel()},
					Variant:  VariantLZTTBR, Domains: 8, Iters: 500, Seed: 42,
					DisableDecodeCache: mode.off,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
