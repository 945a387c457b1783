package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times. It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procSample is one reading of a process's counters from /proc.
type procSample struct {
	id       procID
	cpuTicks uint64 // utime + stime
	syscw    uint64 // write syscalls
	wchar    uint64 // bytes passed to write syscalls
	hwmKB    uint64 // peak resident set (VmHWM)
}

// readProc reads /proc/<pid>/{stat,io,status}.
func readProc(pid int) (procSample, error) {
	s := procSample{id: procID{pid: pid}}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// The command name may hold spaces and parentheses; fields resume
	// after the last ')'. utime and stime are fields 14 and 15 and
	// starttime is field 22, counting the pid as field 1.
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return s, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(stat[end+1:]))
	if len(f) < 20 {
		return s, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	start, err3 := strconv.ParseUint(f[19], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return s, fmt.Errorf("/proc/%d/stat: bad counters", pid)
	}
	s.cpuTicks, s.id.startTime = utime+stime, start

	if err := scanKV(fmt.Sprintf("/proc/%d/io", pid), func(k, v string) {
		switch k {
		case "syscw":
			s.syscw, _ = strconv.ParseUint(v, 10, 64)
		case "wchar":
			s.wchar, _ = strconv.ParseUint(v, 10, 64)
		}
	}); err != nil {
		return s, err
	}
	err = scanKV(fmt.Sprintf("/proc/%d/status", pid), func(k, v string) {
		if k == "VmHWM" {
			s.hwmKB, _ = strconv.ParseUint(strings.TrimSuffix(v, " kB"), 10, 64)
		}
	})
	return s, err
}

// scanKV calls fn for every "key: value" line of a /proc file.
func scanKV(path string, fn func(k, v string)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok {
			fn(strings.TrimSpace(k), strings.TrimSpace(v))
		}
	}
	return sc.Err()
}

// procGroup tracks the counters of a set of processes, one role each
// ("temprivd", "w1", "gateway"), across restarts.
type procGroup struct {
	cpu, syscw, wchar map[string]*counterTrack
	hwmKB             map[string]uint64
}

func newProcGroup() *procGroup {
	return &procGroup{
		cpu:   map[string]*counterTrack{},
		syscw: map[string]*counterTrack{},
		wchar: map[string]*counterTrack{},
		hwmKB: map[string]uint64{},
	}
}

// observe samples every role's current process.
func (g *procGroup) observe(pids map[string]int) error {
	for role, pid := range pids {
		s, err := readProc(pid)
		if err != nil {
			return fmt.Errorf("sampling %s: %w", role, err)
		}
		for _, c := range []struct {
			m map[string]*counterTrack
			v uint64
		}{{g.cpu, s.cpuTicks}, {g.syscw, s.syscw}, {g.wchar, s.wchar}} {
			if c.m[role] == nil {
				c.m[role] = &counterTrack{}
			}
			c.m[role].observe(s.id, c.v)
		}
		g.hwmKB[role] = s.hwmKB
	}
	return nil
}

// cpuMS is the CPU time the given roles used since the first observation.
func (g *procGroup) cpuMS(roles ...string) float64 {
	return float64(sumTracks(g.cpu, roles)) * 1000 / clockTicks
}

func sumTracks(m map[string]*counterTrack, roles []string) uint64 {
	var n uint64
	for _, r := range roles {
		if t := m[r]; t != nil {
			n += t.total
		}
	}
	return n
}

// peakMiB sums the latest VmHWM readings of the given roles.
func (g *procGroup) peakMiB(roles ...string) float64 {
	var kb uint64
	for _, r := range roles {
		kb += g.hwmKB[r]
	}
	return float64(kb) / 1024
}

// cpuTimes reads the machine-wide jiffies from /proc/stat: the total
// and the part stolen by the hypervisor, for reporting how much CPU other
// tenants took during a phase.
func cpuTimes() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter measures the stolen share of machine CPU time between its
// creation and a call to share.
type stealMeter struct{ total, steal uint64 }

func newStealMeter() stealMeter {
	t, s := cpuTimes()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := cpuTimes()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// selfCPUMS is this process's user+system CPU time, at microsecond
// resolution.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	us := ru.Utime.Sec*1e6 + ru.Utime.Usec + ru.Stime.Sec*1e6 + ru.Stime.Usec
	return float64(us) / 1000
}
