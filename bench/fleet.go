package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"aecodes/internal/cluster"
	"aecodes/internal/transport"
)

// fleetNodes is the fleet size every fleet workload runs: one manager
// and this many storage nodes.
const fleetNodes = 4

// nodeQuota is the per-tenant byte quota passed to every node. It is far
// above what a run stores; setting it puts the tenant registry on the
// write path, which is the configuration the workloads measure.
const nodeQuota = 1 << 40

// binaries names the two daemons a fleet runs.
type binaries struct {
	cluster string // aecluster
	stored  string // aestored
}

// buildDaemons compiles aecluster and aestored from the module at root
// into outDir. With the binaries of an earlier run there and the build
// cache warm, this costs the toolchain's up-to-date check.
func buildDaemons(root, outDir string) (binaries, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", outDir+string(os.PathSeparator), "./cmd/aecluster", "./cmd/aestored")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("building daemons in %s: %w\n%s", root, err, out)
	}
	return binaries{cluster: filepath.Join(outDir, "aecluster"), stored: filepath.Join(outDir, "aestored")}, nil
}

// procUsage is what one exited process cost.
type procUsage struct {
	cpuS      float64
	maxRSSMiB float64
}

func (u *procUsage) add(o procUsage) {
	u.cpuS += o.cpuS
	u.maxRSSMiB += o.maxRSSMiB
}

// selfUsage reads the benchmark process's own CPU time and peak RSS: the
// peak since the last resetPeakRSS where /proc has it, else the
// process's.
func selfUsage() procUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}
	}
	u := usageOf(&ru)
	if peak := peakRSSMiB(os.Getpid()); peak > 0 {
		u.maxRSSMiB = peak
	}
	return u
}

func usageOf(ru *syscall.Rusage) procUsage {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	// Linux reports ru_maxrss in KiB.
	return procUsage{cpuS: tv(ru.Utime) + tv(ru.Stime), maxRSSMiB: float64(ru.Maxrss) / 1024}
}

// childUsage is usageOf for an exited child whose peak RSS was read while
// it was alive. A child's ru_maxrss cannot be used: the kernel carries the
// high-water mark across exec, so it starts at whatever this process —
// whose memory the child shared until it exec'd — weighed at fork time.
func childUsage(ru *syscall.Rusage, peakRSSMiB float64) procUsage {
	u := usageOf(ru)
	u.maxRSSMiB = peakRSSMiB
	return u
}

// reaper tracks every live child so that any exit path — a failed run, a
// signal, a panic — can kill them all. Children also carry Pdeathsig
// where the platform has it.
type reaper struct {
	mu    sync.Mutex
	procs map[*daemon]struct{}
}

func newReaper() *reaper { return &reaper{procs: make(map[*daemon]struct{})} }

func (r *reaper) add(d *daemon) {
	r.mu.Lock()
	r.procs[d] = struct{}{}
	r.mu.Unlock()
}

func (r *reaper) remove(d *daemon) {
	r.mu.Lock()
	delete(r.procs, d)
	r.mu.Unlock()
}

// killAll SIGKILLs every tracked process group and waits for each.
func (r *reaper) killAll() {
	r.mu.Lock()
	procs := make([]*daemon, 0, len(r.procs))
	for d := range r.procs {
		procs = append(procs, d)
	}
	r.mu.Unlock()
	for _, d := range procs {
		d.stop(syscall.SIGKILL)
	}
}

// daemon is one child process: aecluster or aestored.
type daemon struct {
	reap   *reaper
	cmd    *exec.Cmd
	addr   string
	stderr *tailBuffer
	done   chan struct{} // closed once stdout reached EOF

	stopOnce sync.Once
	usage    procUsage
}

// tailBuffer keeps the last bytes a child wrote to stderr, for the error
// message when it dies.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.buf.Len() > 8192 {
		t.buf.Reset()
	}
	return t.buf.Write(p)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}

// startDaemon runs bin and waits for its "<announce><addr>" line. It
// returns the time from exec to that line — for a durable node restarted
// on its data, the recovery time.
func startDaemon(reap *reaper, bin string, args []string, announce string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = childAttr()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{reap: reap, cmd: cmd, stderr: &tailBuffer{}, done: make(chan struct{})}
	cmd.Stderr = d.stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	reap.add(d)
	addrCh := make(chan string, 1)
	go func() {
		// Keeps reading after the announcement so the child never blocks
		// on a full pipe.
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), announce); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
		return d, time.Since(start), nil
	case <-d.done:
		d.stop(syscall.SIGKILL)
		return nil, 0, fmt.Errorf("%s exited before announcing itself: %s", filepath.Base(bin), d.stderr.String())
	case <-time.After(30 * time.Second):
		d.stop(syscall.SIGKILL)
		return nil, 0, fmt.Errorf("%s never announced itself: %s", filepath.Base(bin), d.stderr.String())
	}
}

// stop signals the daemon's process group, waits for it to exit and
// records what it cost. A daemon that ignores SIGTERM for five seconds is
// killed. Safe to call more than once.
func (d *daemon) stop(sig syscall.Signal) procUsage {
	d.stopOnce.Do(func() {
		pgid := d.cmd.Process.Pid
		peak := peakRSSMiB(pgid)
		_ = syscall.Kill(-pgid, sig) // the group may already be gone
		timer := time.AfterFunc(5*time.Second, func() { _ = syscall.Kill(-pgid, syscall.SIGKILL) })
		<-d.done
		_ = d.cmd.Wait() // a signalled child reports an error by design
		timer.Stop()
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.usage = childUsage(ru, peak)
		}
		d.reap.remove(d)
	})
	return d.usage
}

// fleet is one manager and fleetNodes storage nodes as child processes.
type fleet struct {
	reap    *reaper
	bins    binaries
	dataDir string // "" for memory-only nodes
	manager *daemon
	nodes   []*daemon
	args    [][]string // per node, for restarts

	mgrAdmin *transport.PoolClient   // metrics and membership queries
	admin    []*transport.PoolClient // per node, anonymous: metrics only

	exited procUsage // processes already gone (a killed node)
}

// freeAddrs reserves n loopback ports by binding and releasing them, so a
// node can be told its address up front and restart on it.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startFleet spawns the manager and the nodes and returns once every
// node's first heartbeat has registered. dataDir "" runs memory-only
// nodes; otherwise node i logs to dataDir/node-i, without -sync: the one
// flush policy of every durable workload (see README). Scrub and heal
// stay off, so background maintenance contributes nothing to any number.
func startFleet(ctx context.Context, reap *reaper, bins binaries, dataDir string) (*fleet, error) {
	addrs, err := freeAddrs(1 + fleetNodes)
	if err != nil {
		return nil, err
	}
	f := &fleet{reap: reap, bins: bins, dataDir: dataDir}
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()
	f.manager, _, err = startDaemon(reap, bins.cluster, []string{"-addr", addrs[0], "-ttl", "1h"}, "aecluster listening on ")
	if err != nil {
		return nil, err
	}
	for i := 0; i < fleetNodes; i++ {
		args := []string{
			"-addr", addrs[1+i], "-cluster", f.manager.addr, "-node", fmt.Sprintf("node-%d", i),
			"-hbinterval", "200ms", "-quota", fmt.Sprint(int64(nodeQuota)),
		}
		if dataDir != "" {
			args = append(args, "-data", filepath.Join(dataDir, fmt.Sprintf("node-%d", i)))
		}
		f.args = append(f.args, args)
		d, _, err := startDaemon(reap, bins.stored, args, "aestored listening on ")
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, d)
	}
	if f.mgrAdmin, err = transport.DialPool(f.manager.addr, 1); err != nil {
		return nil, err
	}
	for _, d := range f.nodes {
		pc, err := transport.DialPool(d.addr, 1)
		if err != nil {
			return nil, err
		}
		f.admin = append(f.admin, pc)
	}
	if err := f.awaitHeartbeats(ctx); err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

// awaitHeartbeats polls the manager's membership view until every node
// is alive in it.
func (f *fleet) awaitHeartbeats(ctx context.Context) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		alive := 0
		if raw, err := f.mgrAdmin.Get(ctx, cluster.KeyNodes); err == nil {
			var nodes []cluster.NodeInfo
			if json.Unmarshal(raw, &nodes) == nil {
				for _, n := range nodes {
					if n.Alive {
						alive++
					}
				}
			}
		}
		if alive == fleetNodes {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d nodes heartbeated within 15s", alive, fleetNodes)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// crashNode SIGKILLs node i and restarts it on its address and data. It
// returns the time from exec to "listening": the node's log recovery.
func (f *fleet) crashNode(i int) (time.Duration, error) {
	f.exited.add(f.nodes[i].stop(syscall.SIGKILL))
	d, recoverTime, err := startDaemon(f.reap, f.bins.stored, f.args[i], "aestored listening on ")
	if err != nil {
		return 0, err
	}
	f.nodes[i] = d
	return recoverTime, nil
}

// dataBytes sums the sizes of the files under the nodes' data
// directories.
func (f *fleet) dataBytes() (int64, error) {
	if f.dataDir == "" {
		return 0, errors.New("memory-only fleet has no data directories")
	}
	return dirBytes(f.dataDir)
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// stop shuts every process down (SIGTERM, so durable nodes close their
// logs), closes the admin connections, and returns what the manager and
// the nodes cost, separately.
func (f *fleet) stop() (manager, nodes procUsage) {
	for _, pc := range f.admin {
		pc.Close()
	}
	if f.mgrAdmin != nil {
		f.mgrAdmin.Close()
	}
	nodes = f.exited
	for _, d := range f.nodes {
		nodes.add(d.stop(syscall.SIGTERM))
	}
	if f.manager != nil {
		manager = f.manager.stop(syscall.SIGTERM)
	}
	return manager, nodes
}
