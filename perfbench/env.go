package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/layer"
	"repro/internal/netlist"
	"repro/internal/workload"
)

// captureEnv describes the host a result came from: fsync cost depends
// on the filesystem under dir, so service numbers from different disks
// are not comparable.
func captureEnv(dir string) string {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("git %s, %s, GOMAXPROCS %d, NumCPU %d, kernel %s, %s fs %s",
		sha, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), kernel, dir, fsType(dir))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// peakRSSMB is the process's high-water resident set, in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the CPU time the process has used so far, every thread.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the total heap allocated so far by the process.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// specSeed redraws a preset workload seed from the benchmark seed. Seed
// 0 keeps the presets; boards that share a preset keep sharing.
func specSeed(seed, preset int64) int64 {
	if seed == 0 {
		return preset
	}
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(preset)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x >> 1)
}

// parallel runs f(0) to f(n-1) on one goroutine per CPU and returns
// their errors joined. Inputs are generated this way before timing.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// designText generates spec's design as .brd text, the input grr reads.
func designText(spec workload.Spec) ([]byte, error) {
	d, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := boardio.WriteDesign(&buf, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// prepare builds d's empty board with its pins placed, as grr and the
// job server do before routing.
func prepare(d *netlist.Design) (*board.Board, error) {
	b, err := board.New(d.GridConfig())
	if err != nil {
		return nil, err
	}
	if err := d.PlacePins(b); err != nil {
		return nil, err
	}
	return b, nil
}

// segments counts the channel segments on every layer of b.
func segments(b *board.Board) int {
	n := 0
	for _, l := range b.Layers {
		l.VisitSegments(func(int, *layer.Segment) bool { n++; return true })
	}
	return n
}
