package server

import (
	crand "crypto/rand"
	"encoding/binary"
	"time"

	"repro/internal/obs"
)

// Retry causes, as reported in grr_jobs_retried_total{cause=...}. The
// set is closed: every transient classification in execute/settle maps
// to exactly one of these, so the series are pre-registered and the
// label values never come from error text.
const (
	causePanic      = "panic"
	causeCheckpoint = "checkpoint"
	causeConflict   = "conflict"
	causeAudit      = "audit"
	causeJournal    = "journal"
)

var retryCauses = [...]string{causePanic, causeCheckpoint, causeConflict, causeAudit, causeJournal}

// serverObs bundles the daemon's registry handles. It always exists —
// New backs it with a private registry when Config.Metrics is nil — so
// call sites never nil-check; a scrape handler is only mounted when the
// operator supplied the registry.
type serverObs struct {
	reg *obs.Registry

	// edge holds each lifecycle edge's counters (the table's count column).
	edge    [numEvents][]*obs.Counter
	retried map[string]*obs.Counter

	rejectFull    *obs.Counter
	rejectDrain   *obs.Counter
	rejectSpec    *obs.Counter
	rejectJournal *obs.Counter
	rejectDisk    *obs.Counter

	queueDepth *obs.Gauge
	slotsInUse *obs.Gauge
	running    *obs.Gauge

	attemptSeconds *obs.Histogram
	jobSeconds     *obs.Histogram

	journalWrites    *obs.Counter
	journalWriteErrs *obs.Counter
	journalReplayed  *obs.Counter
	journalCorrupt   *obs.Counter

	journalFenced *obs.Counter

	diskDegradedG      *obs.Gauge
	diskErrors         *obs.Counter
	diskProbes         *obs.Counter
	diskProbeFailures  *obs.Counter
	diskRecoveries     *obs.Counter
	diskTmpCleaned     *obs.Counter
	journalQuarantined *obs.Counter

	// Tail-latency contract (DESIGN §14): deadline admission/expiry and
	// queue wait.
	deadlineRefused  *obs.Counter
	deadlineExceeded *obs.Counter
	queueWaitSeconds *obs.Histogram
}

func newServerObs(reg *obs.Registry) *serverObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &serverObs{
		reg:     reg,
		retried: make(map[string]*obs.Counter, len(retryCauses)),

		rejectFull:    reg.Counter(`grr_admission_rejects_total{reason="queue_full"}`),
		rejectDrain:   reg.Counter(`grr_admission_rejects_total{reason="draining"}`),
		rejectSpec:    reg.Counter(`grr_admission_rejects_total{reason="bad_spec"}`),
		rejectJournal: reg.Counter(`grr_admission_rejects_total{reason="journal"}`),
		rejectDisk:    reg.Counter(`grr_admission_rejects_total{reason="disk_degraded"}`),

		queueDepth: reg.Gauge("grr_queue_depth"),
		slotsInUse: reg.Gauge("grr_slots_in_use"),
		running:    reg.Gauge("grr_jobs_running"),

		attemptSeconds: reg.Histogram("grr_job_attempt_seconds", obs.DurationBuckets()),
		jobSeconds:     reg.Histogram("grr_job_seconds", obs.DurationBuckets()),

		journalWrites:    reg.Counter("grr_journal_writes_total"),
		journalWriteErrs: reg.Counter("grr_journal_write_errors_total"),
		journalReplayed:  reg.Counter("grr_journal_records_replayed_total"),
		journalCorrupt:   reg.Counter("grr_journal_records_corrupt_total"),

		journalFenced: reg.Counter("grr_journal_writes_fenced_total"),

		diskDegradedG:      reg.Gauge("grr_disk_degraded"),
		diskErrors:         reg.Counter("grr_disk_errors_total"),
		diskProbes:         reg.Counter("grr_disk_probes_total"),
		diskProbeFailures:  reg.Counter("grr_disk_probe_failures_total"),
		diskRecoveries:     reg.Counter("grr_disk_recoveries_total"),
		diskTmpCleaned:     reg.Counter("grr_disk_tmp_cleaned_total"),
		journalQuarantined: reg.Counter("grr_journal_records_quarantined_total"),

		deadlineRefused:  reg.Counter("grr_deadline_refused_total"),
		deadlineExceeded: reg.Counter("grr_deadline_exceeded_total"),
		queueWaitSeconds: reg.Histogram("grr_queue_wait_seconds", obs.DurationBuckets()),
	}
	for ev, e := range edges {
		for _, name := range e.count {
			o.edge[ev] = append(o.edge[ev], reg.Counter(name))
		}
	}
	for _, cause := range retryCauses {
		o.retried[cause] = reg.Counter(`grr_jobs_retried_total{cause="` + cause + `"}`)
	}
	return o
}

// retry counts one scheduled retry under its cause; an unknown cause
// (a programming error) is folded into "panic" rather than minting an
// unbounded label value at runtime.
func (o *serverObs) retry(cause string) {
	c, ok := o.retried[cause]
	if !ok {
		c = o.retried[causePanic]
	}
	c.Inc()
}

// gauges publishes the current run-queue and slot occupancy. Callers
// hold the server mutex; the values are instantaneous reads, which is
// all a gauge promises.
func (s *Server) gauges() {
	s.obs.queueDepth.Set(int64(len(s.queue)))
	s.obs.slotsInUse.Set(int64(s.live))
}

// entropySeed derives a non-zero RNG seed from the OS entropy pool,
// falling back to the wall clock if that fails. Used when
// Config.RetrySeed is zero, so every daemon restart jitters its retry
// schedule differently — a restarted fleet must not retry in lockstep.
func entropySeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return time.Now().UnixNano() | 1
	}
	n := int64(binary.LittleEndian.Uint64(b[:]))
	if n == 0 {
		n = 1
	}
	return n
}
