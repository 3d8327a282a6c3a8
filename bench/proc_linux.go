package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// childAttr puts a daemon in its own process group, so one signal to the
// group reaps it with anything it started, and asks the kernel to kill it
// if the benchmark itself dies without running its clean-up.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
}

// tmpfsMagic is TMPFS_MAGIC from linux/magic.h.
const tmpfsMagic = 0x01021994

// deviceOf reports what kind of file system holds dir and how many bytes
// an unprivileged process may still write there.
func deviceOf(dir string) (kind string, free int64, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", 0, err
	}
	kind = "disk"
	if int64(st.Type) == tmpfsMagic {
		kind = "tmpfs"
	}
	return kind, int64(st.Bavail) * int64(st.Bsize), nil
}

// peakRSSMiB reads a live process's peak resident set (VmHWM) from
// /proc; 0 when the process is gone or the line is missing.
func peakRSSMiB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kib / 1024
	}
	return 0
}

// resetPeakRSS restarts this process's own peak-RSS watermark, so each
// lifecycle reports its own peak and not the highest of the run so far.
// Where the kernel refuses, the watermark simply keeps rising.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
