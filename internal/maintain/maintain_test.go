package maintain

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"aecodes/internal/entangle"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
)

// fakeTime drives a Bucket without wall-clock sleeps: sleeping advances
// the virtual clock and accumulates the slept total.
type fakeTime struct {
	t     time.Time
	slept time.Duration
}

func (f *fakeTime) install(b *Bucket) {
	f.t = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.now = func() time.Time { return f.t }
	b.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		f.t = f.t.Add(d)
		f.slept += d
		return nil
	}
	b.mu.Lock()
	b.last = f.t
	b.mu.Unlock()
}

func TestBucketConvergesOnByteRate(t *testing.T) {
	b := NewBucket(1000, 0)
	clk := &fakeTime{}
	clk.install(b)

	// Ten 500-byte charges at 1000 B/s: the first lands on an empty but
	// debt-free bucket; each later one must wait for the prior debt, so
	// the run takes ~4.5 virtual seconds.
	for i := 0; i < 10; i++ {
		if err := b.Acquire(context.Background(), 1, 500); err != nil {
			t.Fatal(err)
		}
	}
	if clk.slept < 4*time.Second || clk.slept > 5*time.Second {
		t.Fatalf("10x500B at 1000B/s slept %v, want ~4.5s", clk.slept)
	}
}

func TestBucketOpsRate(t *testing.T) {
	b := NewBucket(0, 10)
	clk := &fakeTime{}
	clk.install(b)
	for i := 0; i < 20; i++ {
		if err := b.Acquire(context.Background(), 5, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	// 20x5 ops at 10 ops/s ≈ 9.5s; the huge byte charge is free because
	// the byte dimension is disabled.
	if clk.slept < 9*time.Second || clk.slept > 10*time.Second {
		t.Fatalf("100 ops at 10/s slept %v, want ~9.5s", clk.slept)
	}
}

func TestBucketUnlimitedAdmitsImmediately(t *testing.T) {
	b := NewBucket(0, 0)
	clk := &fakeTime{}
	clk.install(b)
	for i := 0; i < 100; i++ {
		if err := b.Acquire(context.Background(), 1000, 1<<40); err != nil {
			t.Fatal(err)
		}
	}
	if clk.slept != 0 {
		t.Fatalf("unlimited bucket slept %v", clk.slept)
	}
}

func TestBucketBurstCappedAtOneSecond(t *testing.T) {
	b := NewBucket(1000, 0)
	clk := &fakeTime{}
	clk.install(b)
	// A long idle stretch must not bank more than 1s of tokens: a 3000-byte
	// charge after 10 idle seconds leaves 2000 bytes of debt (~2s wait),
	// not zero.
	clk.t = clk.t.Add(10 * time.Second)
	if err := b.Acquire(context.Background(), 1, 3000); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire(context.Background(), 1, 0); err != nil {
		t.Fatal(err)
	}
	if clk.slept < 1900*time.Millisecond || clk.slept > 2100*time.Millisecond {
		t.Fatalf("slept %v repaying post-burst debt, want ~2s", clk.slept)
	}
}

func TestBucketPauseBlocksUntilResume(t *testing.T) {
	b := NewBucket(0, 0)
	clk := &fakeTime{}
	clk.install(b)
	b.Pause()
	polls := 0
	b.sleep = func(ctx context.Context, d time.Duration) error {
		polls++
		if polls == 3 {
			b.Resume()
		}
		clk.t = clk.t.Add(d)
		return nil
	}
	if err := b.Acquire(context.Background(), 1, 1); err != nil {
		t.Fatal(err)
	}
	if polls != 3 {
		t.Fatalf("paused Acquire polled %d times before Resume admitted it, want 3", polls)
	}
}

func TestBucketHonorsContext(t *testing.T) {
	b := NewBucket(0, 0)
	b.Pause()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Acquire(ctx, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on cancelled ctx = %v, want Canceled", err)
	}
}

// scriptTask runs a fixed sequence of Progress results, then stays idle.
type scriptTask struct {
	name   string
	script []Progress
	errs   []error
	runs   atomic.Int32
}

func (t *scriptTask) Name() string { return t.name }

func (t *scriptTask) RunOnce(ctx context.Context) (Progress, error) {
	i := int(t.runs.Add(1)) - 1
	var err error
	if i < len(t.errs) {
		err = t.errs[i]
	}
	if i < len(t.script) {
		return t.script[i], err
	}
	return Progress{Idle: true}, err
}

func TestSchedulerRunsTasksAndAccounts(t *testing.T) {
	task := &scriptTask{name: "demo", script: []Progress{
		{Ops: 3, Bytes: 300, Found: 1, Repaired: 1},
		{Ops: 2, Bytes: 200},
	}}
	var events atomic.Int32
	s := NewScheduler(Options{
		IdleDelay: time.Millisecond,
		OnEvent:   func(string, ...any) { events.Add(1) },
	}, task)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); s.Run(ctx) }()
	deadline := time.After(5 * time.Second)
	for task.runs.Load() < 3 {
		select {
		case <-deadline:
			t.Fatal("scheduler never drained the script")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	st := s.Stats()["demo"]
	if st.Ops < 5 || st.Bytes < 500 || st.Found != 1 || st.Repaired != 1 {
		t.Fatalf("Stats = %+v, want the scripted totals", st)
	}
	if events.Load() < 1 {
		t.Fatal("the found/repaired step emitted no event")
	}
}

func TestSchedulerSurvivesTaskErrors(t *testing.T) {
	task := &scriptTask{name: "flaky", errs: []error{errors.New("boom"), errors.New("boom")}}
	var events atomic.Int32
	s := NewScheduler(Options{
		IdleDelay: time.Millisecond,
		OnEvent:   func(string, ...any) { events.Add(1) },
	}, task)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); s.Run(ctx) }()
	deadline := time.After(5 * time.Second)
	for task.runs.Load() < 4 {
		select {
		case <-deadline:
			t.Fatal("scheduler stopped after task errors")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	if st := s.Stats()["flaky"]; st.Errors != 2 {
		t.Fatalf("Errors = %d, want 2", st.Errors)
	}
	if events.Load() < 2 {
		t.Fatal("task errors were not reported")
	}
}

func TestSchedulerPausesUnderPressure(t *testing.T) {
	var pressured atomic.Bool
	pressured.Store(true)
	task := &scriptTask{name: "work"}
	b := NewBucket(1000, 0)
	s := NewScheduler(Options{
		Limit:         b,
		Pressure:      pressured.Load,
		IdleDelay:     time.Millisecond,
		PressureDelay: time.Millisecond,
	}, task)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); s.Run(ctx) }()

	time.Sleep(20 * time.Millisecond)
	if task.runs.Load() != 0 {
		t.Fatal("task ran under foreground pressure")
	}
	b.mu.Lock()
	paused := b.paused
	b.mu.Unlock()
	if !paused {
		t.Fatal("pressure did not pause the shared bucket")
	}

	pressured.Store(false)
	deadline := time.After(5 * time.Second)
	for task.runs.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("task never ran after pressure cleared")
		case <-time.After(time.Millisecond):
		}
	}
	b.mu.Lock()
	paused = b.paused
	b.mu.Unlock()
	if paused {
		t.Fatal("bucket still paused after pressure cleared")
	}
	cancel()
	<-done
}

// fakeScrubber scripts ScrubStep results and records cursors.
type fakeScrubber struct {
	results []segstore.ScrubResult
	cursors []string
}

func (f *fakeScrubber) ScrubStep(after string, maxBytes int64) segstore.ScrubResult {
	f.cursors = append(f.cursors, after)
	if len(f.results) == 0 {
		return segstore.ScrubResult{}
	}
	res := f.results[0]
	f.results = f.results[1:]
	return res
}

func TestScrubTaskAdvancesCursorAndCharges(t *testing.T) {
	fs := &fakeScrubber{results: []segstore.ScrubResult{
		{Next: "k10", Scanned: 5, Bytes: 500, Corrupt: []string{"k03"}},
		{Next: "", Scanned: 2, Bytes: 200},
	}}
	b := NewBucket(1000, 0)
	clk := &fakeTime{}
	clk.install(b)
	task := &ScrubTask{Store: fs, Limit: b}

	p1, err := task.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p1.Found != 1 || p1.Ops != 5 || p1.Bytes != 500 || p1.Idle {
		t.Fatalf("step 1 progress = %+v", p1)
	}
	p2, err := task.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p2.Idle {
		t.Fatal("a scanning step reported idle")
	}
	if want := []string{"", "k10"}; fs.cursors[0] != want[0] || fs.cursors[1] != want[1] {
		t.Fatalf("cursors = %v, want %v", fs.cursors, want)
	}
	if clk.slept == 0 {
		t.Fatal("700 scanned bytes at 1000B/s charged nothing")
	}
	// An empty store is an idle step.
	p3, err := task.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !p3.Idle {
		t.Fatalf("empty step progress = %+v, want idle", p3)
	}
}

// fakeTarget scripts Health and records Repair invocations.
type fakeTarget struct {
	health  entangle.Health
	calls   []entangle.Options
	results []entangle.Stats
}

func (f *fakeTarget) Health(ctx context.Context) (entangle.Health, error) {
	return f.health, nil
}

func (f *fakeTarget) Repair(ctx context.Context, opts entangle.Options) (entangle.Stats, error) {
	f.calls = append(f.calls, opts)
	if len(f.results) == 0 {
		return entangle.Stats{}, nil
	}
	res := f.results[0]
	f.results = f.results[1:]
	return res, nil
}

func damagedHealth() entangle.Health {
	return entangle.Health{
		Blocks:       100,
		Missing:      store.Missing{Data: []int{10, 20}},
		IntactTuples: map[int]int{10: 3, 20: 1},
		Score:        1.0/4 + 1.0/2,
	}
}

func TestHealTaskTargetsFragileFirst(t *testing.T) {
	ft := &fakeTarget{
		health:  damagedHealth(),
		results: []entangle.Stats{{DataRepaired: 2, BytesRead: 4096}},
	}
	task := &HealTask{Open: func(ctx context.Context) (HealTarget, error) { return ft, nil }}
	prog, err := task.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.calls) != 1 {
		t.Fatalf("Repair called %d times, want 1", len(ft.calls))
	}
	opts := ft.calls[0]
	if opts.Priority != entangle.PriorityUrgent {
		t.Errorf("Priority = %v, want Urgent (block 20 has one intact tuple)", opts.Priority)
	}
	if len(opts.Targets) != 2 || opts.Targets[0] != store.DataRef(20) || opts.Targets[1] != store.DataRef(10) {
		t.Errorf("Targets = %v, want fragile-first [d20 d10]", opts.Targets)
	}
	if prog.Repaired != 2 || prog.Found != 2 || prog.Bytes != 4096 || prog.Idle {
		t.Errorf("progress = %+v", prog)
	}
}

func TestHealTaskFallsBackToLatticeScope(t *testing.T) {
	ft := &fakeTarget{
		health: damagedHealth(),
		// The targeted run completes nothing; the fallback round pass does.
		results: []entangle.Stats{{}, {DataRepaired: 2}},
	}
	task := &HealTask{Open: func(ctx context.Context) (HealTarget, error) { return ft, nil }}
	prog, err := task.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.calls) != 2 {
		t.Fatalf("Repair called %d times, want targeted + fallback", len(ft.calls))
	}
	if len(ft.calls[0].Targets) == 0 || len(ft.calls[1].Targets) != 0 {
		t.Errorf("Targets = %v then %v, want a targeted run, then a whole-lattice one", ft.calls[0].Targets, ft.calls[1].Targets)
	}
	if ft.calls[1].MaxRounds <= 0 {
		t.Errorf("fallback MaxRounds = %d, want bounded", ft.calls[1].MaxRounds)
	}
	if prog.Repaired != 2 || prog.Idle {
		t.Errorf("progress = %+v", prog)
	}
}

func TestHealTaskIdleWhenUnrecoverable(t *testing.T) {
	ft := &fakeTarget{health: damagedHealth()} // every Repair returns zero
	task := &HealTask{Open: func(ctx context.Context) (HealTarget, error) { return ft, nil }}
	prog, err := task.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Idle {
		t.Fatal("no-progress heal must back off idle instead of spinning")
	}
}

func TestHealTaskIdleBeforeArchiveExists(t *testing.T) {
	task := &HealTask{Open: func(ctx context.Context) (HealTarget, error) {
		return nil, store.ErrNotFound
	}}
	prog, err := task.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Idle {
		t.Fatal("missing lattice shape must be an idle step, not an error")
	}
}

func TestHealTaskHealthyIsIdle(t *testing.T) {
	ft := &fakeTarget{health: entangle.Health{Blocks: 10}}
	task := &HealTask{Open: func(ctx context.Context) (HealTarget, error) { return ft, nil }}
	prog, err := task.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Idle || len(ft.calls) != 0 {
		t.Fatalf("healthy lattice: progress=%+v, %d repair calls", prog, len(ft.calls))
	}
}

// fakeDrainer scripts DrainStep.
type fakeDrainer struct {
	moves []int
	err   error
	maxes []int
}

func (f *fakeDrainer) DrainStep(max int) (int, error) {
	f.maxes = append(f.maxes, max)
	if len(f.moves) == 0 {
		return 0, f.err
	}
	n := f.moves[0]
	f.moves = f.moves[1:]
	return n, f.err
}

func TestDrainTaskBatchesAndIdles(t *testing.T) {
	fd := &fakeDrainer{moves: []int{16, 3}}
	task := &DrainTask{Mgr: fd}
	p1, err := task.RunOnce(context.Background())
	if err != nil || p1.Repaired != 16 || p1.Idle {
		t.Fatalf("step 1 = %+v, %v", p1, err)
	}
	p2, err := task.RunOnce(context.Background())
	if err != nil || p2.Repaired != 3 || p2.Idle {
		t.Fatalf("step 2 = %+v, %v", p2, err)
	}
	p3, err := task.RunOnce(context.Background())
	if err != nil || !p3.Idle {
		t.Fatalf("drained step = %+v, %v, want idle", p3, err)
	}
	if fd.maxes[0] != 16 {
		t.Fatalf("default batch = %d, want 16", fd.maxes[0])
	}
}

func TestDrainTaskReportsManagerError(t *testing.T) {
	fd := &fakeDrainer{err: errors.New("no nodes")}
	task := &DrainTask{Mgr: fd}
	if _, err := task.RunOnce(context.Background()); err == nil {
		t.Fatal("manager error swallowed")
	}
}
