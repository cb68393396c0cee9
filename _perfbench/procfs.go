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

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// procCPUSeconds returns user+system CPU time of a process, summed over
// its threads, from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) is parenthesized
// and may contain spaces, so fields are counted after its closing
// parenthesis.
func parseStatCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: stat line without command name: %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so field k is f[k-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat line has %d fields after the name", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// procPeakRSSBytes returns VmHWM, the peak resident set size, from
// /proc/<pid>/status.
func procPeakRSSBytes(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, "VmHWM")
}

// parseStatusKB reads a "Key:   N kB" line of /proc/<pid>/status, in
// bytes.
func parseStatusKB(b []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: malformed %s line %q", key, sc.Text())
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: %s: %w", key, err)
		}
		return n << 10, nil
	}
	return 0, fmt.Errorf("procfs: no %s line", key)
}

// procWriteBytes returns write_bytes from /proc/<pid>/io: bytes the
// process caused to be sent to the storage layer, counted when pages
// are dirtied.
func procWriteBytes(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	return parseIOField(b, "write_bytes")
}

// parseIOField reads one "key: N" line of /proc/<pid>/io.
func parseIOField(b []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: %s: %w", key, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("procfs: no %s line", key)
}

// procSample is one reading of the counters the benchmark tracks per
// daemon process.
type procSample struct {
	CPU        float64 // seconds
	WriteBytes int64
}

func readProc(pid int) (procSample, error) {
	cpu, err := procCPUSeconds(pid)
	if err != nil {
		return procSample{}, err
	}
	wb, err := procWriteBytes(pid)
	if err != nil {
		return procSample{}, err
	}
	return procSample{CPU: cpu, WriteBytes: wb}, nil
}

// fsMagic names the filesystems a WAL directory is likely to sit on,
// keyed by statfs f_type.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
	0xF2F52010: "f2fs",
}

// filesystemOf names the filesystem holding dir.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
