package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// command builds a child process that the kernel kills if the benchmark
// dies first, so a run stopped from outside leaves no daemon behind.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// usage is the resource use of an ended child process.
type usage struct {
	CPUS     float64 // user + system CPU seconds
	MaxRSSMB float64 // peak resident set size
}

func usageOf(ps *os.ProcessState) usage {
	u := usage{CPUS: (ps.UserTime() + ps.SystemTime()).Seconds()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// selfUsage is the benchmark process's own resource use so far.
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	return usage{CPUS: cpu, MaxRSSMB: float64(ru.Maxrss) / 1024}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads the user + system CPU seconds a running process has used
// so far, across all its threads, from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space-separated. utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU times in /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTicks, nil
}
