package main

// Child-process accounting. dts -workers spawns worker processes that
// the coordinator's own rusage does not include, so the benchmark makes
// itself a child subreaper: workers that outlive dts are re-parented
// here and reaped with their rusage, and workers dts reaps itself are
// already folded into dts's rusage by the kernel.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const prSetChildSubreaper = 36 // PR_SET_CHILD_SUBREAPER, linux/prctl.h

// becomeSubreaper makes orphaned descendants re-parent to this process.
func becomeSubreaper() error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// usage is the resource use of one command and every descendant.
type usage struct {
	Wall   time.Duration `json:"wall_ns"`
	CPU    time.Duration `json:"cpu_ns"`     // user + system, all processes
	MaxRSS int64         `json:"max_rss_kb"` // largest single process
	// Steal is the CPU time the hypervisor took from this machine's
	// CPUs during the command, all CPUs summed; it is recorded so a slow
	// repetition on a shared host can be told from a slow program.
	Steal time.Duration `json:"host_steal_ns"`
}

func (u *usage) add(ru *syscall.Rusage) {
	u.CPU += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	u.MaxRSS = max(u.MaxRSS, ru.Maxrss)
}

// runCmd runs bin with args in dir, discarding stdout, and returns the
// resource use of it and every descendant. A non-zero exit is an error
// carrying the tail of stderr.
func runCmd(dir, bin string, args ...string) (usage, error) {
	var u usage
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stderr = &stderr
	steal := hostSteal()
	start := time.Now()
	runErr := cmd.Run()
	u.Wall = time.Since(start)
	u.Steal = hostSteal() - steal
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			u.add(ru)
		}
	}
	reapErr := reapOrphans(&u, 30*time.Second)
	if runErr != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 400 {
			msg = msg[len(msg)-400:]
		}
		return u, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), runErr, msg)
	}
	return u, reapErr
}

// reapOrphans waits for every remaining child (re-parented orphans),
// adding their rusage to u. Children still running after timeout are
// killed, reaped, and reported as an error. It must not run while
// another goroutine waits on a child of its own.
func reapOrphans(u *usage, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lingered error
	for {
		var ws syscall.WaitStatus
		var ru syscall.Rusage
		pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, &ru)
		switch {
		case errors.Is(err, syscall.ECHILD):
			return lingered
		case errors.Is(err, syscall.EINTR):
			continue
		case err != nil:
			return fmt.Errorf("wait4: %w", err)
		case pid > 0:
			u.add(&ru)
			continue
		}
		if lingered == nil && time.Now().After(deadline) {
			lingered = errors.New("descendant processes still running after the command exited; killed them")
			killChildren()
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// hostSteal reads the machine's cumulative steal time from /proc/stat
// (0 where it is unavailable).
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// killChildren sends SIGKILL to every child of this process.
func killChildren() {
	lists, _ := filepath.Glob("/proc/self/task/*/children")
	for _, l := range lists {
		data, err := os.ReadFile(l)
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(data)) {
			if pid, err := strconv.Atoi(f); err == nil {
				_ = syscall.Kill(pid, syscall.SIGKILL) // it may have exited meanwhile
			}
		}
	}
}
