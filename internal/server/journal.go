package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/boardio"
	"repro/internal/simfs"
)

// The job journal is one file per job, <dir>/<id>.job, rewritten in full
// via boardio.AtomicWrite at every state transition and every durable
// checkpoint. The format wraps the snapshot codec:
//
//	grrdjob v1
//	id <job id>
//	state <queued|running|retrying|interrupted|done|failed|handed_off>
//	attempt <n>
//	error <quoted string>            last failure, "" when none
//	aborted <quoted string>          abort reason of the last stop, "" when none
//	deadline <unix nanos>            absolute client deadline; omitted when none
//	result <16-hex fingerprint> <audit 0/1>   done jobs only
//	snapshot begin
//	...WriteSnapshot lines (with their own checksum)...
//	snapshot end
//	checksum <16 hex digits>         FNV-64a over every preceding byte
//
// Atomic rename means a crash leaves either the previous record or the
// new one; the whole-file checksum catches the remaining hazard — a
// torn or bit-rotted file from outside the daemon — so recovery never
// trusts a corrupt record. A "token" line, which records of the retired
// hedged-execution protocol carry, is read and ignored, and a rewritten
// record drops it. Terminal jobs keep their journal entry (it
// is the system of record a client polls after a restart); non-terminal
// entries are what a restarted daemon requeues.

const journalExt = ".job"

func journalPath(dir, id string) string { return filepath.Join(dir, id+journalExt) }

// writeJobRecord serializes j. The caller must guarantee the fields it
// reads are stable: either it holds the server mutex, or it passed a
// private copy.
func writeJobRecord(w io.Writer, j *Job) error {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "grrdjob v1")
	fmt.Fprintf(&buf, "id %s\n", j.ID)
	fmt.Fprintf(&buf, "state %s\n", j.State)
	fmt.Fprintf(&buf, "attempt %d\n", j.Attempt)
	fmt.Fprintf(&buf, "error %s\n", strconv.Quote(j.Err))
	fmt.Fprintf(&buf, "aborted %s\n", strconv.Quote(j.Aborted))
	// The deadline line is emitted only when set: a job without one
	// writes the exact bytes the pre-deadline format wrote.
	if !j.Deadline.IsZero() {
		fmt.Fprintf(&buf, "deadline %d\n", j.Deadline.UnixNano())
	}
	if j.State == StateDone {
		fmt.Fprintf(&buf, "result %016x %d\n", j.Fingerprint, boolDigit(j.AuditOK))
	}
	fmt.Fprintln(&buf, "snapshot begin")
	if err := boardio.WriteSnapshot(&buf, j.snap); err != nil {
		return err
	}
	fmt.Fprintln(&buf, "snapshot end")
	boardio.AppendChecksum(&buf)
	_, err := w.Write(buf.Bytes())
	return err
}

func boolDigit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// readJobRecord parses and validates one journal record.
func readJobRecord(r io.Reader) (*Job, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}

	body, err := boardio.VerifyChecksum(data)
	if err != nil {
		return nil, fmt.Errorf("server: job record: %w", err)
	}

	lines := strings.Split(string(body), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "grrdjob v1" {
		return nil, fmt.Errorf("server: job record: want header \"grrdjob v1\"")
	}

	j := &Job{}
	var haveSnap bool
	for ln := 1; ln < len(lines); ln++ {
		line := strings.TrimSpace(lines[ln])
		if line == "" {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		switch key {
		case "id":
			j.ID = rest
		case "state":
			st, err := parseState(rest)
			if err != nil {
				return nil, err
			}
			j.State = st
		case "attempt":
			n, err := strconv.Atoi(rest)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("server: job record: bad attempt %q", rest)
			}
			j.Attempt = n
		case "error":
			s, err := strconv.Unquote(rest)
			if err != nil {
				return nil, fmt.Errorf("server: job record: bad error field %q", rest)
			}
			j.Err = s
		case "aborted":
			s, err := strconv.Unquote(rest)
			if err != nil {
				return nil, fmt.Errorf("server: job record: bad aborted field %q", rest)
			}
			j.Aborted = s
		case "deadline":
			ns, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("server: job record: bad deadline %q", rest)
			}
			j.Deadline = time.Unix(0, ns)
		case "token":
			// A legacy hedge attempt token: its value is ignored.
		case "result":
			f := strings.Fields(rest)
			if len(f) != 2 {
				return nil, fmt.Errorf("server: job record: result needs fingerprint audit")
			}
			fp, err := strconv.ParseUint(f[0], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("server: job record: bad fingerprint %q", f[0])
			}
			j.Fingerprint = fp
			j.AuditOK = f[1] == "1"
		case "snapshot":
			if rest != "begin" {
				return nil, fmt.Errorf("server: job record: want \"snapshot begin\"")
			}
			var sb strings.Builder
			terminated := false
			for ln++; ln < len(lines); ln++ {
				if strings.TrimSpace(lines[ln]) == "snapshot end" {
					terminated = true
					break
				}
				sb.WriteString(lines[ln])
				sb.WriteByte('\n')
			}
			if !terminated {
				return nil, fmt.Errorf("server: job record: unterminated snapshot block")
			}
			snap, err := boardio.ReadSnapshot(strings.NewReader(sb.String()))
			if err != nil {
				return nil, fmt.Errorf("server: job record snapshot: %w", err)
			}
			j.snap = snap
			haveSnap = true
		default:
			return nil, fmt.Errorf("server: job record: unknown directive %q", key)
		}
	}
	if j.ID == "" || j.State == "" || !haveSnap {
		return nil, fmt.Errorf("server: job record missing id, state or snapshot")
	}
	if j.State == StateDone {
		m := j.snap.Check.Metrics
		j.Metrics = &m
	}
	return j, nil
}

// saveJobRecord writes j's record crash-safely. It goes through
// boardio.AtomicWrite, so the simfs filesystem seam applies: a
// checkpoint sink that cannot persist surfaces an error here, aborts
// the run with AbortCheckpoint, and lands on the retry path.
func saveJobRecord(dir string, j *Job) error {
	return boardio.AtomicWrite(journalPath(dir, j.ID), func(w io.Writer) error {
		return writeJobRecord(w, j)
	})
}

// corruptDir is where recovery quarantines unreadable records.
const corruptDir = "corrupt"

// journalScan reports the housekeeping a journal recovery scan did
// alongside the replayed records.
type journalScan struct {
	tmpCleaned  int // stale *.tmp files from interrupted atomic writes
	quarantined int // corrupt records moved into corrupt/
}

// loadJournal reads every job record in dir, sorted by ID. A record
// that fails to parse is reported through warn and quarantined into
// dir/corrupt — one corrupt file (necessarily external damage, given
// the atomic writes) must not take down recovery of the healthy jobs,
// but leaving it in place would re-parse (and re-warn about) it on
// every restart, and operators deserve to find the evidence in one
// spot. Leftover .tmp files from an interrupted atomic write are
// deleted.
func loadJournal(dir string, warn func(path string, err error)) ([]*Job, journalScan, error) {
	fsys := simfs.Current()
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, journalScan{}, err
	}
	var jobs []*Job
	var scan journalScan
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			if fsys.Remove(filepath.Join(dir, name)) == nil {
				scan.tmpCleaned++
			}
			continue
		}
		if !strings.HasSuffix(name, journalExt) {
			continue
		}
		path := filepath.Join(dir, name)
		j, err := readJobPath(path)
		if err != nil {
			warn(path, err)
			if quarantine(fsys, dir, name) {
				scan.quarantined++
			}
			continue
		}
		if want := strings.TrimSuffix(name, journalExt); j.ID != want {
			warn(path, fmt.Errorf("server: job record claims id %q", j.ID))
			if quarantine(fsys, dir, name) {
				scan.quarantined++
			}
			continue
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs, scan, nil
}

// quarantine moves one corrupt record into dir/corrupt, fsyncing both
// directories so the move survives a crash. Best-effort: a false
// return leaves the record where it was, to be warned about again next
// time — never worth failing recovery over.
func quarantine(fsys simfs.FS, dir, name string) bool {
	qdir := filepath.Join(dir, corruptDir)
	if err := fsys.MkdirAll(qdir, 0o777); err != nil {
		return false
	}
	if err := fsys.Rename(filepath.Join(dir, name), filepath.Join(qdir, name)); err != nil {
		return false
	}
	boardio.SyncDir(qdir)
	boardio.SyncDir(dir)
	return true
}

func readJobPath(path string) (*Job, error) {
	f, err := simfs.Current().Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	j, err := readJobRecord(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return j, nil
}

// Exported record codec — the fleet layer ships job records between
// nodes (steal, handoff) and reads a fenced node's journal directly, in
// exactly the on-disk format, so a handed-off job carries its checkpoint
// bit-for-bit.

// EncodeRecord serializes j in the grrdjob v1 journal format.
func (j *Job) EncodeRecord(w io.Writer) error { return writeJobRecord(w, j) }

// DecodeRecord parses and validates one grrdjob v1 record.
func DecodeRecord(r io.Reader) (*Job, error) { return readJobRecord(r) }

// LoadRecord reads one job's record from dir — the coordinator's read
// path when the answer to a move's steal was lost and the donor holds
// the job handed_off (DESIGN §14). Atomic rename means a concurrent
// write yields either the previous record or the new one, never a torn
// read the checksum would miss.
func LoadRecord(dir, id string) (*Job, error) {
	return readJobPath(journalPath(dir, id))
}

// LoadRecords reads every job record in dir, sorted by ID, reporting
// (and quarantining) corrupt files through warn. It is loadJournal
// exported for the fleet coordinator's post-fence recovery scan.
func LoadRecords(dir string, warn func(path string, err error)) ([]*Job, error) {
	jobs, _, err := loadJournal(dir, warn)
	return jobs, err
}

// Journal fencing. The journal directory carries an epoch file,
// "EPOCH", holding a monotonic epoch token:
//
//	epoch <n>\n          — owned by the node that started at epoch n
//	epoch <n> fenced\n   — the coordinator revoked the journal at n
//
// A server adopts the epoch it finds at startup (creating epoch 1 on a
// fresh directory) and re-checks the file around every journal write:
// any change — a bumped number or the fenced marker — means a newer
// owner exists, the write is refused with ErrFenced, and the node stops
// committing. That is what makes failover safe against zombies: a
// partitioned-but-alive node whose jobs were handed to a peer cannot
// double-commit results into a journal it no longer owns. (The check
// brackets the atomic rename rather than being transactional with it;
// the residual window is noted in DESIGN §12.3.)

// ErrFenced means this node's journal epoch has been revoked by the
// fleet coordinator: the job now runs on a peer, and every further
// journal write here must fail rather than double-commit.
var ErrFenced = errors.New("server: journal fenced (epoch revoked)")

const epochFile = "EPOCH"

func epochPath(dir string) string { return filepath.Join(dir, epochFile) }

// ReadEpoch reports the journal directory's epoch token. A missing file
// is epoch 0 (fresh directory), not an error.
func ReadEpoch(dir string) (epoch uint64, fenced bool, err error) {
	data, err := simfs.Current().ReadFile(epochPath(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 || f[0] != "epoch" {
		return 0, false, fmt.Errorf("server: malformed epoch file %s: %q", epochPath(dir), string(data))
	}
	n, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("server: bad epoch %q in %s", f[1], epochPath(dir))
	}
	return n, len(f) > 2 && f[2] == "fenced", nil
}

// WriteEpoch stamps the journal directory with an epoch token.
func WriteEpoch(dir string, epoch uint64, fenced bool) error {
	return boardio.AtomicWrite(epochPath(dir), func(w io.Writer) error {
		line := fmt.Sprintf("epoch %d\n", epoch)
		if fenced {
			line = fmt.Sprintf("epoch %d fenced\n", epoch)
		}
		_, err := io.WriteString(w, line)
		return err
	})
}

// FenceJournal revokes dir's current epoch: it bumps the token and sets
// the fenced marker, so the (possibly still running) previous owner's
// next journal write fails with ErrFenced and a future server refuses
// to start on the directory at all. Returns the new epoch. Idempotent:
// fencing an already-fenced journal bumps again, which is harmless —
// no server ever owns a fenced epoch.
func FenceJournal(dir string) (uint64, error) {
	n, _, err := ReadEpoch(dir)
	if err != nil {
		return 0, err
	}
	if err := WriteEpoch(dir, n+1, true); err != nil {
		return 0, err
	}
	return n + 1, nil
}

// checkEpoch verifies that dir still carries exactly epoch own with no
// fence marker, returning ErrFenced otherwise.
func checkEpoch(dir string, own uint64) error {
	n, fenced, err := ReadEpoch(dir)
	if err != nil {
		return err
	}
	if fenced || n != own {
		return fmt.Errorf("%w: journal at epoch %d (fenced=%v), this node owns %d", ErrFenced, n, fenced, own)
	}
	return nil
}
