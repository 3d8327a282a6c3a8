//go:build unix

package segstore

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive advisory flock on dir/LOCK, failing fast
// when another process holds the directory. flock dies with its holder,
// so a SIGKILL'd node never blocks its own restart — unlike an
// existence-checked lock file, which would go stale on exactly the
// crashes this store is built to survive.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segstore: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("segstore: %s is in use by another process: %w", dir, err)
	}
	return f, nil
}

// syncDir fsyncs a directory entry table. Unix filesystems require this
// for file creations and unlinks to survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}
