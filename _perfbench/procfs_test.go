package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses; utime is 150 and
	// stime 50 ticks.
	line := "4242 (ssd (served) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 50 0 0 20 0 9 0 100 0 0\n"
	got, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.0 {
		t.Errorf("cpu = %v s, want 2.0", got)
	}
	if _, err := parseStatCPU([]byte("4242 no-parens S 1")); err == nil {
		t.Error("stat line without a command name parsed")
	}
}

func TestParseStatusAndIO(t *testing.T) {
	status := "Name:\tssdserved\nVmPeak:\t  900 kB\nVmHWM:\t  655284 kB\nVmRSS:\t  1000 kB\n"
	n, err := parseStatusKB([]byte(status), "VmHWM")
	if err != nil || n != 655284<<10 {
		t.Errorf("VmHWM = %d, %v; want %d", n, err, 655284<<10)
	}
	if _, err := parseStatusKB([]byte("VmRSS:\t1 kB\n"), "VmHWM"); err == nil {
		t.Error("missing VmHWM parsed")
	}
	io := "rchar: 141971643\nwchar: 524241195\nwrite_bytes: 519909376\ncancelled_write_bytes: 0\n"
	wb, err := parseIOField([]byte(io), "write_bytes")
	if err != nil || wb != 519909376 {
		t.Errorf("write_bytes = %d, %v", wb, err)
	}
}

func TestReadOwnProcess(t *testing.T) {
	pid := os.Getpid()
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i
	}
	_ = x
	cpu, err := procCPUSeconds(pid)
	if err != nil || cpu <= 0 {
		t.Errorf("own CPU = %v, %v; want > 0 after a busy loop", cpu, err)
	}
	rss, err := procPeakRSSBytes(pid)
	if err != nil || rss <= 0 {
		t.Errorf("own VmHWM = %d, %v", rss, err)
	}
	if _, err := procWriteBytes(pid); err != nil {
		t.Errorf("own write_bytes: %v", err)
	}
}
