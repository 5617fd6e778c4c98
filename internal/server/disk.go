package server

import (
	"errors"
	"io"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/boardio"
	"repro/internal/simfs"
)

// Disk-fault degradation. A journal write that fails with a disk errno
// (ENOSPC, EIO, quota, read-only remount) latches the daemon into a
// degraded posture instead of letting every job burn its retry budget
// against a disk that cannot take writes:
//
//   - admission stops: Submit/Adopt refuse with ErrDiskDegraded, which
//     the HTTP layer maps to 507 Insufficient Storage + Retry-After;
//   - /readyz reports 503 "disk_degraded" and the fleet heartbeat
//     carries Health "disk_degraded", so the coordinator routes new
//     work away from the node, and peers with an idle worker steal its
//     waiting jobs;
//   - in-flight jobs whose attempt died on a disk error park as
//     interrupted (keeping their admission slot) rather than retrying
//     into the same wall — their last durable checkpoint is intact;
//   - a self-probe (a small AtomicWrite into the journal directory,
//     every Config.DiskProbeEvery) clears the posture when the disk
//     takes writes again, requeuing the parked jobs.
//
// The posture is deliberately pessimistic-in, optimistic-out: one disk
// errno is enough to latch it, and one full atomic write (create,
// write, fsync, rename, directory fsync) is enough to clear it.

// ErrDiskDegraded refuses admission while the journal disk cannot take
// writes. HTTP maps it to 507 Insufficient Storage.
var ErrDiskDegraded = errors.New("server: disk degraded, not accepting jobs")

// diskProbeFile is the self-probe's scratch name inside the journal
// directory. Never parsed by recovery (no .job suffix); a stale one
// left by a crash is removed at startup.
const diskProbeFile = "DISKPROBE"

// diskErrnos are the write errors that mean "the disk, not the data":
// full, quota-exhausted, failing media, remounted read-only. Anything
// else (bad path, permission, checksum) keeps the normal retry path —
// degrading on those would turn a software bug into an outage.
var diskErrnos = [...]syscall.Errno{syscall.ENOSPC, syscall.EIO, syscall.EDQUOT, syscall.EROFS}

// isDiskError classifies err by errno, through any number of wrapping
// layers — injected faults carry real errnos for exactly this reason.
func isDiskError(err error) bool {
	for _, errno := range diskErrnos {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// noteDiskError inspects a failed journal write and latches the
// degraded posture when the failure is the disk's fault.
func (s *Server) noteDiskError(err error) {
	if !isDiskError(err) {
		return
	}
	s.obs.diskErrors.Inc()
	if !s.diskDegraded.CompareAndSwap(false, true) {
		return
	}
	s.obs.diskDegradedG.Set(1)
	s.log.Log("disk_degraded", "err", err.Error())
}

// DiskDegraded reports whether the degraded-disk posture is latched.
func (s *Server) DiskDegraded() bool { return s.diskDegraded.Load() }

// diskProbeLoop periodically re-tests the disk while degraded. It does
// no I/O at all while the posture is clear, so a healthy daemon's
// operation log stays exactly the jobs' own writes.
func (s *Server) diskProbeLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.DiskProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-s.drainCtx.Done():
			return
		case <-t.C:
			if !s.diskDegraded.Load() {
				continue
			}
			s.obs.diskProbes.Inc()
			if err := s.probeDisk(); err != nil {
				s.obs.diskProbeFailures.Inc()
				s.log.Log("disk_probe_failed", "err", err.Error())
				continue
			}
			s.exitDiskDegraded()
		}
	}
}

// probeDisk exercises the full durable-write path — create, write,
// fsync, rename, directory fsync, unlink — in the journal directory.
// Only a disk that can do all of that is healed enough to journal jobs.
func (s *Server) probeDisk() error {
	path := filepath.Join(s.cfg.JournalDir, diskProbeFile)
	err := boardio.AtomicWrite(path, func(w io.Writer) error {
		_, werr := io.WriteString(w, "probe\n")
		return werr
	})
	if err != nil {
		return err
	}
	return simfs.Current().Remove(path)
}

// exitDiskDegraded clears the posture, writes the handoffs the disk
// refused and requeues the jobs parked on it. A write that fails again
// leaves its job where it was for the next successful probe.
func (s *Server) exitDiskDegraded() {
	if !s.diskDegraded.CompareAndSwap(true, false) {
		return
	}
	s.obs.diskDegradedG.Set(0)
	s.obs.diskRecoveries.Inc()
	s.log.Log("disk_recovered")
	for _, j := range s.leaving(evRejournal) {
		s.transition(j, evRejournal, nil)
	}
	for _, j := range s.leaving(evUnpark) {
		s.transition(j, evUnpark, nil)
	}
}
