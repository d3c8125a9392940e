package main

import (
	"fmt"
	"math/rand"

	"lightzone/internal/arm64"
	"lightzone/internal/core"
	"lightzone/internal/kernel"
	"lightzone/internal/mem"
	"lightzone/internal/verify"
	"lightzone/internal/workload"
)

// The churn machine's working set. lz_alloc copies every mapped heap page
// into the new domain table, and a first lz_prot withdraws its page from
// every live table, so heap pages and resident zones set the per-call cost.
const (
	churnHeapPages = 2048
	churnResident  = 512
	churnSpares    = 64
	churnTriples   = 1000 // per pass

	churnHeapBase = 0x7000_0000
	churnZoneBase = 0x6100_0000
)

// churnMachine is one prepared churn process.
type churnMachine struct {
	env  *workload.Env
	lp   *core.LZProc
	zone []int // zone id protecting resident page i
}

func zonePage(i int) mem.VA { return mem.VA(churnZoneBase + uint64(i)*mem.PageSize) }

// setupChurn boots the machine, maps the heap, enters LightZone under the
// scalable TTBR policy and builds the resident set of protected zones.
func setupChurn(b *bench) (*churnMachine, error) {
	m := &churnMachine{zone: make([]int, churnResident)}
	plat := workload.Platform{Prof: arm64.ProfileCortexA55()}
	d, err := b.setupCall("workload", "workload.boot", func() error {
		var err error
		m.env, err = workload.NewEnv(plat)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	b.sample("workload.boot_us", us(d))
	var p *kernel.Process
	if _, err := b.setupCall("kernel", "kernel.create_process", func() error {
		var err error
		p, err = m.env.K.CreateProcess("perfbench-churn", kernel.Program{Extra: []kernel.VMA{
			{Start: churnHeapBase, End: churnHeapBase + churnHeapPages*mem.PageSize, Prot: kernel.ProtRead | kernel.ProtWrite, Name: "heap"},
			{Start: churnZoneBase, End: zonePage(churnResident + churnSpares), Prot: kernel.ProtRead | kernel.ProtWrite, Name: "zones"},
		}})
		if err != nil {
			return err
		}
		if err := p.AS.EnsureMapped(churnHeapBase, churnHeapPages*mem.PageSize); err != nil {
			return err
		}
		return p.AS.EnsureMapped(churnZoneBase, (churnResident+churnSpares)*mem.PageSize)
	}); err != nil {
		return nil, fmt.Errorf("process: %w", err)
	}
	d, err = b.setupCall("core", "core.enter", func() error {
		var err error
		m.lp, err = m.env.LZ.EnterProcess(m.env.K, p, true, core.SanTTBR)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("lz_enter: %w", err)
	}
	b.sample("core.enter_us", us(d))
	for i := range m.zone {
		if _, err := b.setupCall("core", "core.alloc", func() error {
			var err error
			m.zone[i], err = m.lp.Alloc()
			return err
		}); err != nil {
			return nil, fmt.Errorf("resident zone %d: %w", i, err)
		}
		if _, err := b.setupCall("core", "core.prot", func() error {
			return m.lp.Prot(zonePage(i), mem.PageSize, m.zone[i], core.PermRead|core.PermWrite)
		}); err != nil {
			return nil, fmt.Errorf("resident zone %d: %w", i, err)
		}
	}
	return m, nil
}

// churnOp is one alloc/prot/free triple. A spare triple protects a spare
// page under the new zone and frees that zone again (a first protection,
// which withdraws the page from every live table); a move triple hands a
// resident page to the new zone and frees the zone that held it.
type churnOp struct {
	move bool
	page int // spare index, or resident slot for a move
	perm int
}

// churnOps is one pass's seeded operation order: a fixed mix of three
// spare triples to one move triple, with pages, permissions and order
// drawn from the seed.
func churnOps(seed int64, n int) []churnOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]churnOp, n)
	for i := range ops {
		op := churnOp{move: i%4 == 3, perm: core.PermRead}
		if rng.Intn(2) == 0 {
			op.perm |= core.PermWrite
		}
		if op.move {
			op.page = rng.Intn(churnResident)
		} else {
			op.page = rng.Intn(churnSpares)
		}
		ops[i] = op
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// triple runs one operation, timing each module call.
func (m *churnMachine) triple(b *bench, op churnOp, t *churnTimes) error {
	var id int
	before := m.env.M.PM.AllocatedBytes()
	d, err := b.call("core", "core.alloc", func() error {
		var err error
		id, err = m.lp.Alloc()
		return err
	})
	if err != nil {
		return fmt.Errorf("lz_alloc: %w", err)
	}
	t.alloc = append(t.alloc, us(d))
	t.frames = append(t.frames, float64((m.env.M.PM.AllocatedBytes()-before)/mem.PageSize))
	page, victim := zonePage(churnResident+op.page), id
	if op.move {
		page, victim = zonePage(op.page), m.zone[op.page]
	}
	d, err = b.call("core", "core.prot", func() error { return m.lp.Prot(page, mem.PageSize, id, op.perm) })
	if err != nil {
		return fmt.Errorf("lz_prot: %w", err)
	}
	t.prot = append(t.prot, us(d))
	d, err = b.call("core", "core.free", func() error { return m.lp.Free(victim) })
	if err != nil {
		return fmt.Errorf("lz_free: %w", err)
	}
	t.free = append(t.free, us(d))
	if op.move {
		m.zone[op.page] = id
	}
	return nil
}

// churnTimes collects one pass's per-call samples.
type churnTimes struct{ alloc, prot, free, frames []float64 }

func startChurn(b *bench) (func() error, error) {
	ops := churnOps(b.seed, churnTriples)
	pass := func() error {
		m, err := setupChurn(b)
		if err != nil {
			return err
		}
		k, st := m.env.K, *m.env.M.CPU.Stats
		sys0, pf0, rc0, rl0 := k.Syscalls, k.PageFaults, k.ASIDRecycles, k.ASIDRolls
		var t churnTimes
		for _, op := range ops {
			b.attempt(b.timed(func() error { return m.triple(b, op, &t) }))
		}
		for name, xs := range map[string][]float64{
			"core.alloc_us": t.alloc, "core.prot_us": t.prot, "core.free_us": t.free,
		} {
			b.sample(name, median(xs))
		}
		b.sample("core.frames_per_alloc", median(t.frames))
		now := *m.env.M.CPU.Stats
		b.sample("mem.frames", float64(m.env.M.PM.AllocatedBytes()/mem.PageSize))
		b.sample("mem.code_invalidations", float64(now.CodeInvalidations-st.CodeInvalidations))
		b.sample("mem.tlb_hit_rate", ratio(float64(now.TLBHits-st.TLBHits), float64(now.TLBHits-st.TLBHits+now.TLBMisses-st.TLBMisses)))
		b.sample("kernel.syscalls", float64(k.Syscalls-sys0))
		b.sample("kernel.page_faults", float64(k.PageFaults-pf0))
		b.sample("kernel.asid_recycles", float64(k.ASIDRecycles-rc0))
		b.sample("kernel.asid_rolls", float64(k.ASIDRolls-rl0))
		if b.last {
			b.attempt(verifyChurned(b, m))
		}
		return nil
	}
	return pass, nil
}

// verifyChurned runs one whole-machine verification of the run's last
// churned machine, outside the timing; it must report no finding.
func verifyChurned(b *bench, m *churnMachine) error {
	var rep verify.Report
	_, err := b.call("verify", "verify.run_machine", func() error {
		var err error
		rep, err = verify.RunMachine(m.env.M, m.env.LZ)
		return err
	})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !rep.Clean() {
		return fmt.Errorf("verify after churn: %d findings, first: %s", len(rep.Findings), rep.Findings[0])
	}
	return nil
}
