package boardio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/simfs"
)

// This file is the checkpoint snapshot codec: everything grr needs to
// resume an interrupted routing run, in one self-describing text file.
// The format is line-oriented and sectioned, reusing the .brd and .con
// formats verbatim for the design and connection blocks:
//
//	snapshot v1
//	option <name> <integer>          router options (booleans as 0/1)
//	cursor <pass> <nextpos> <prevunrouted>
//	metrics <22 integers>            core.Metrics, field order below
//	design begin / ... / design end  WriteDesign lines
//	conns begin / ... / conns end    WriteConnections lines
//	croute <idx> <method> <nsegs> <nvias>   one per connection, ascending
//	cseg <layer> <ch> <lo> <hi>             nsegs per croute
//	cvia <x> <y>                            nvias per croute
//	checksum <16 hex digits>         FNV-64a over every preceding byte
//
// The trailing checksum catches truncation — the expected corruption for
// a file written moments before a crash; SaveSnapshot additionally
// writes via rename so a torn write can never replace a good snapshot.

// Snapshot bundles a resumable routing run.
type Snapshot struct {
	Design *netlist.Design
	Conns  []core.Connection
	// Opts are the router options of the interrupted run. CheckpointSink
	// is a function and is not serialized; callers re-attach it (and may
	// overlay a fresh TimeBudget) before Restore.
	Opts  core.Options
	Check *core.Checkpoint
}

// maxSnapshotBytes bounds how much ReadSnapshot will buffer; a snapshot
// beyond it is rejected, not truncated.
const maxSnapshotBytes = 1 << 26

// fnv64a hashes b with FNV-64a, matching the board/viamap fingerprint
// constants.
func fnv64a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// metricsInts flattens m into its canonical 22-integer serialization
// order, the snapshot's `metrics` line. unpackMetrics is its inverse;
// the two must change together.
func metricsInts(m core.Metrics) []int {
	out := []int{m.Connections, m.Routed, m.Failed}
	out = append(out, m.ByMethod[:]...)
	return append(out,
		m.RipUps, m.PutBacks, m.ReRouted, m.ViasAdded, m.LeeExpansions, m.LeeBlocked,
		m.FailNoVictims, m.FailRounds, m.FailNodeBudget, m.TraceCalls, m.ViasCalls,
		m.Passes, m.WireLength)
}

func unpackMetrics(v []int) core.Metrics {
	var m core.Metrics
	m.Connections, m.Routed, m.Failed = v[0], v[1], v[2]
	copy(m.ByMethod[:], v[3:9])
	m.RipUps, m.PutBacks, m.ReRouted, m.ViasAdded, m.LeeExpansions, m.LeeBlocked = v[9], v[10], v[11], v[12], v[13], v[14]
	m.FailNoVictims, m.FailRounds, m.FailNodeBudget, m.TraceCalls, m.ViasCalls = v[15], v[16], v[17], v[18], v[19]
	m.Passes, m.WireLength = v[20], v[21]
	return m
}

// optionField serializes one router option. Booleans travel as 0/1 and
// TimeBudget as nanoseconds, so every value is one integer.
type optionField struct {
	name string
	get  func(*core.Options) int64
	set  func(*core.Options, int64)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

var optionFields = []optionField{
	{"radius", func(o *core.Options) int64 { return int64(o.Radius) }, func(o *core.Options, v int64) { o.Radius = int(v) }},
	{"sort", func(o *core.Options) int64 { return boolInt(o.Sort) }, func(o *core.Options, v int64) { o.Sort = v != 0 }},
	{"cost", func(o *core.Options) int64 { return int64(o.Cost) }, func(o *core.Options, v int64) { o.Cost = core.CostFn(v) }},
	{"bidirectional", func(o *core.Options) int64 { return boolInt(o.Bidirectional) }, func(o *core.Options, v int64) { o.Bidirectional = v != 0 }},
	{"maxripuprounds", func(o *core.Options) int64 { return int64(o.MaxRipupRounds) }, func(o *core.Options, v int64) { o.MaxRipupRounds = int(v) }},
	{"ripupradius", func(o *core.Options) int64 { return int64(o.RipupRadius) }, func(o *core.Options, v int64) { o.RipupRadius = int(v) }},
	{"costcapfactor", func(o *core.Options) int64 { return int64(o.CostCapFactor) }, func(o *core.Options, v int64) { o.CostCapFactor = int(v) }},
	{"maxpasses", func(o *core.Options) int64 { return int64(o.MaxPasses) }, func(o *core.Options, v int64) { o.MaxPasses = int(v) }},
	{"allowoffgrid", func(o *core.Options) int64 { return boolInt(o.AllowOffGrid) }, func(o *core.Options, v int64) { o.AllowOffGrid = v != 0 }},
	{"idbase", func(o *core.Options) int64 { return int64(o.IDBase) }, func(o *core.Options, v int64) { o.IDBase = int(v) }},
	{"escalate", func(o *core.Options) int64 { return boolInt(o.Escalate) }, func(o *core.Options, v int64) { o.Escalate = v != 0 }},
	{"timebudgetns", func(o *core.Options) int64 { return int64(o.TimeBudget) }, func(o *core.Options, v int64) { o.TimeBudget = time.Duration(v) }},
	{"nodebudget", func(o *core.Options) int64 { return int64(o.NodeBudget) }, func(o *core.Options, v int64) { o.NodeBudget = int(v) }},
	{"paranoid", func(o *core.Options) int64 { return boolInt(o.Paranoid) }, func(o *core.Options, v int64) { o.Paranoid = v != 0 }},
	{"checkpointevery", func(o *core.Options) int64 { return int64(o.CheckpointEvery) }, func(o *core.Options, v int64) { o.CheckpointEvery = int(v) }},
	// engine postdates the fields above; snapshots written before it
	// simply omit the line, and the zero value it decodes to
	// (EngineClassic) is exactly what those runs used. engine is
	// algorithmic — resume refuses a conflicting -engine.
	{"engine", func(o *core.Options) int64 { return int64(o.Engine) }, func(o *core.Options, v int64) { o.Engine = core.Engine(v) }},
}

// legacyOptions are option names earlier releases wrote or accepted
// that no longer mean anything. ReadSnapshot and ApplyOption still
// accept them, so old journals and old clients keep working, and ignore
// their values; WriteSnapshot never writes them. None ever changed
// routed output: workers was the intra-board worker count, and
// recordregions armed the incremental re-routing that edits no longer
// take (DESIGN §15.2).
var legacyOptions = []string{"workers", "recordregions"}

// ApplyOption sets the named router option on o from its integer
// serialization (booleans as 0/1, the time budget as nanoseconds),
// exactly as the snapshot reader would. Legacy names are accepted and
// ignored; unknown names are an error.
func ApplyOption(o *core.Options, name string, v int64) error {
	for _, f := range optionFields {
		if f.name == name {
			f.set(o, v)
			return nil
		}
	}
	if slices.Contains(legacyOptions, name) {
		return nil
	}
	return fmt.Errorf("boardio: unknown router option %q", name)
}

// WriteSnapshot serializes s with a trailing whole-file checksum.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if s.Design == nil || s.Check == nil {
		return fmt.Errorf("boardio: snapshot needs a design and a checkpoint")
	}
	if len(s.Check.Routes) != len(s.Conns) {
		return fmt.Errorf("boardio: snapshot checkpoint holds %d routes for %d connections",
			len(s.Check.Routes), len(s.Conns))
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "snapshot v1")
	for _, f := range optionFields {
		fmt.Fprintf(&buf, "option %s %d\n", f.name, f.get(&s.Opts))
	}
	cp := s.Check
	fmt.Fprintf(&buf, "cursor %d %d %d\n", cp.Pass, cp.NextPos, cp.PrevUnrouted)
	fmt.Fprint(&buf, "metrics")
	for _, v := range metricsInts(cp.Metrics) {
		fmt.Fprintf(&buf, " %d", v)
	}
	fmt.Fprintln(&buf)
	fmt.Fprintln(&buf, "design begin")
	if err := WriteDesign(&buf, s.Design); err != nil {
		return err
	}
	fmt.Fprintln(&buf, "design end")
	fmt.Fprintln(&buf, "conns begin")
	if err := WriteConnections(&buf, s.Conns); err != nil {
		return err
	}
	fmt.Fprintln(&buf, "conns end")
	for i, cr := range cp.Routes {
		fmt.Fprintf(&buf, "croute %d %d %d %d\n", i, cr.Method, len(cr.Segs), len(cr.Vias))
		for _, cs := range cr.Segs {
			fmt.Fprintf(&buf, "cseg %d %d %d %d\n", cs.Layer, cs.Ch, cs.Lo, cs.Hi)
		}
		for _, v := range cr.Vias {
			fmt.Fprintf(&buf, "cvia %d %d\n", v.X, v.Y)
		}
	}
	AppendChecksum(&buf)
	_, err := w.Write(buf.Bytes())
	return err
}

// ReadSnapshot parses and validates the WriteSnapshot format. The
// checksum must match and every structural count must be internally
// consistent; board-level feasibility (do the routes actually fit) is
// checked later by core.Resume.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxSnapshotBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxSnapshotBytes {
		return nil, fmt.Errorf("boardio: snapshot exceeds %d bytes", maxSnapshotBytes)
	}
	body, err := VerifyChecksum(data)
	if err != nil {
		return nil, fmt.Errorf("boardio: snapshot: %w", err)
	}

	s := &Snapshot{Check: &core.Checkpoint{}}
	opts := make(map[string]func(*core.Options, int64))
	for _, f := range optionFields {
		opts[f.name] = f.set
	}
	for _, name := range legacyOptions {
		opts[name] = func(*core.Options, int64) {}
	}

	lines := strings.Split(string(body), "\n")
	ln := 0
	fail := func(why string) error {
		return fmt.Errorf("boardio: snapshot line %d: %s", ln, why)
	}
	next := func() (string, bool) {
		for ln < len(lines) {
			l := strings.TrimSpace(lines[ln])
			ln++
			if l == "" || strings.HasPrefix(l, "#") {
				continue
			}
			return l, true
		}
		return "", false
	}
	// collect gathers the raw lines of a begin/end block.
	collect := func(end string) (string, error) {
		var sb strings.Builder
		for ln < len(lines) {
			l := lines[ln]
			ln++
			if strings.TrimSpace(l) == end {
				return sb.String(), nil
			}
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
		return "", fail("unterminated block (missing " + end + ")")
	}

	first, ok := next()
	if !ok || first != "snapshot v1" {
		return nil, fail("want header \"snapshot v1\"")
	}

	var haveCursor, haveMetrics bool
	var cur *core.ConnRoute
	var needSegs, needVias int
	closeRoute := func() error {
		if cur != nil && (needSegs != 0 || needVias != 0) {
			return fail(fmt.Sprintf("croute %d short of %d cseg and %d cvia lines",
				len(s.Check.Routes)-1, needSegs, needVias))
		}
		cur = nil
		return nil
	}

	for {
		line, ok := next()
		if !ok {
			break
		}
		f := strings.Fields(line)
		switch f[0] {
		case "option":
			if len(f) != 3 {
				return nil, fail("option needs name value")
			}
			set := opts[f[1]]
			if set == nil {
				return nil, fail("unknown option " + f[1])
			}
			v, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return nil, fail("bad option value " + f[2])
			}
			set(&s.Opts, v)
		case "cursor":
			if len(f) != 4 {
				return nil, fail("cursor needs pass nextpos prevunrouted")
			}
			vals, err := atois(f[1:])
			if err != nil {
				return nil, fail(err.Error())
			}
			s.Check.Pass, s.Check.NextPos, s.Check.PrevUnrouted = vals[0], vals[1], vals[2]
			if s.Check.Pass < 0 || s.Check.NextPos < 0 || s.Check.PrevUnrouted < 0 {
				return nil, fail("negative cursor")
			}
			haveCursor = true
		case "metrics":
			want := len(metricsInts(core.Metrics{}))
			if len(f)-1 != want {
				return nil, fail(fmt.Sprintf("metrics needs %d integers, got %d", want, len(f)-1))
			}
			vals, err := atois(f[1:])
			if err != nil {
				return nil, fail(err.Error())
			}
			s.Check.Metrics = unpackMetrics(vals)
			haveMetrics = true
		case "design":
			if len(f) != 2 || f[1] != "begin" {
				return nil, fail("want \"design begin\"")
			}
			block, err := collect("design end")
			if err != nil {
				return nil, err
			}
			d, err := ReadDesign(strings.NewReader(block))
			if err != nil {
				return nil, fmt.Errorf("boardio: snapshot design block: %w", err)
			}
			s.Design = d
		case "conns":
			if len(f) != 2 || f[1] != "begin" {
				return nil, fail("want \"conns begin\"")
			}
			block, err := collect("conns end")
			if err != nil {
				return nil, err
			}
			conns, err := ReadConnections(strings.NewReader(block))
			if err != nil {
				return nil, fmt.Errorf("boardio: snapshot conns block: %w", err)
			}
			s.Conns = conns
		case "croute":
			if err := closeRoute(); err != nil {
				return nil, err
			}
			if len(f) != 5 {
				return nil, fail("croute needs idx method nsegs nvias")
			}
			vals, err := atois(f[1:])
			if err != nil {
				return nil, fail(err.Error())
			}
			idx, method, nsegs, nvias := vals[0], vals[1], vals[2], vals[3]
			if idx != len(s.Check.Routes) {
				return nil, fail(fmt.Sprintf("croute index %d out of order (want %d)", idx, len(s.Check.Routes)))
			}
			if method < 0 || core.Method(method) > core.PutBack {
				return nil, fail("unknown method " + f[2])
			}
			if nsegs < 0 || nvias < 0 || nsegs > 1<<20 || nvias > 1<<20 {
				return nil, fail("implausible croute counts")
			}
			s.Check.Routes = append(s.Check.Routes, core.ConnRoute{Method: core.Method(method)})
			cur = &s.Check.Routes[len(s.Check.Routes)-1]
			needSegs, needVias = nsegs, nvias
		case "cseg":
			if cur == nil || needSegs == 0 {
				return nil, fail("unexpected cseg")
			}
			if len(f) != 5 {
				return nil, fail("cseg needs layer ch lo hi")
			}
			vals, err := atois(f[1:])
			if err != nil {
				return nil, fail(err.Error())
			}
			cur.Segs = append(cur.Segs, core.CheckpointSeg{Layer: vals[0], Ch: vals[1], Lo: vals[2], Hi: vals[3]})
			needSegs--
		case "cvia":
			if cur == nil || needVias == 0 {
				return nil, fail("unexpected cvia")
			}
			if len(f) != 3 {
				return nil, fail("cvia needs x y")
			}
			vals, err := atois(f[1:])
			if err != nil {
				return nil, fail(err.Error())
			}
			cur.Vias = append(cur.Vias, geom.Pt(vals[0], vals[1]))
			needVias--
		default:
			return nil, fail("unknown directive " + f[0])
		}
	}
	if err := closeRoute(); err != nil {
		return nil, err
	}
	if s.Design == nil {
		return nil, fmt.Errorf("boardio: snapshot has no design block")
	}
	if !haveCursor || !haveMetrics {
		return nil, fmt.Errorf("boardio: snapshot missing cursor or metrics")
	}
	if len(s.Check.Routes) != len(s.Conns) {
		return nil, fmt.Errorf("boardio: snapshot holds %d croute records for %d connections",
			len(s.Check.Routes), len(s.Conns))
	}
	return s, nil
}

// checksumTag opens the trailer line of a checksummed file.
const checksumTag = "checksum "

// AppendChecksum ends buf with the trailer line "checksum <16 hex
// digits>": the FNV-64a hash of every byte already in buf. Snapshots
// and grrd job records end with it; VerifyChecksum checks it.
func AppendChecksum(buf *bytes.Buffer) {
	fmt.Fprintf(buf, checksumTag+"%016x\n", fnv64a(buf.Bytes()))
}

// VerifyChecksum splits data into its body and the trailer that
// AppendChecksum wrote, and returns the body if the trailer is present
// and matches. Callers name the file kind when they wrap the error.
func VerifyChecksum(data []byte) ([]byte, error) {
	i := bytes.LastIndex(data, []byte("\n"+checksumTag))
	if i < 0 {
		if !bytes.HasPrefix(data, []byte(checksumTag)) {
			return nil, errors.New("no checksum trailer (truncated?)")
		}
		i = -1 // degenerate: checksum is the first line, body is empty
	}
	body := data[:i+1]
	trailer := strings.TrimSpace(string(data[i+1:]))
	rest, ok := strings.CutPrefix(trailer, checksumTag)
	if !ok {
		return nil, errors.New("no checksum trailer (truncated?)")
	}
	want, err := strconv.ParseUint(strings.TrimSpace(rest), 16, 64)
	if err != nil {
		return nil, fmt.Errorf("bad checksum %q", rest)
	}
	if got := fnv64a(body); got != want {
		return nil, fmt.Errorf("checksum mismatch: file says %016x, content hashes to %016x", want, got)
	}
	return body, nil
}

func atois(fields []string) ([]int, error) {
	out := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out[i] = v
	}
	return out, nil
}

// AtomicWrite writes a file crash-safely: write produces the bytes into
// a temporary file in path's directory, the temp file is fsynced and
// closed, and only then renamed over path. A crash at any point leaves
// either the previous file or the new one, never a torn or — because of
// the fsync — a zero-length file that the rename made visible before
// the data reached disk. After the rename the parent directory is
// fsynced too: the file fsync makes the *bytes* durable, but the rename
// itself lives in the directory, and without the directory sync a crash
// right after AtomicWrite returns can roll the name back to the old
// file (or to nothing, for a first write) even though the caller was
// told the record was durable. Any failure removes the temp file and
// leaves path untouched. The snapshot codec and the grrd job journal
// both persist through it.
func AtomicWrite(path string, write func(io.Writer) error) error {
	fsys := simfs.Current()
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		// The rename only makes durable content visible: sync before it,
		// or a crash between rename and writeback leaves a good name on
		// an empty file. A *failed* fsync is terminal for this write: the
		// kernel may have dropped the dirty pages already, so the temp
		// file's state is unknown and must never be renamed into place.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("%s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making any rename inside it durable.
// Platforms whose filesystems refuse to fsync directories report
// EINVAL/ENOTSUP; those are ignored — there is nothing more the code
// can do, and failing the write would be worse than the status quo.
// Exported because the journal layer also moves files (quarantine)
// and owes them the same durability.
func SyncDir(dir string) error {
	d, err := simfs.Current().OpenDir(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("fsync %s: %w", dir, err)
	}
	return nil
}

// RemoveStaleTmp deletes leftover "*.tmp" files in dir — the droppings
// of atomic writes that crashed between create and rename. They are
// dead weight (recovery never reads them) but they accumulate across
// crashes and alarm operators, so every startup path sweeps its
// durable directories through here. Returns how many were removed;
// errors on individual removes are ignored (the next sweep retries).
func RemoveStaleTmp(dir string) int {
	fsys := simfs.Current()
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		if fsys.Remove(filepath.Join(dir, e.Name())) == nil {
			n++
		}
	}
	return n
}

// SaveSnapshot writes s to path via AtomicWrite: a crash mid-write can
// never destroy the previous good snapshot or leave a truncated new one.
func SaveSnapshot(path string, s *Snapshot) error {
	return AtomicWrite(path, func(w io.Writer) error {
		return WriteSnapshot(w, s)
	})
}

// LoadSnapshot reads a snapshot from path.
func LoadSnapshot(path string) (*Snapshot, error) {
	f, err := simfs.Current().Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Restore rebuilds the snapshot's board — pins placed, checkpointed
// routes re-created — and a router that resumes from the checkpoint
// cursor. The snapshot's own options are used; overlay changes (a fresh
// TimeBudget, a re-attached CheckpointSink) on s.Opts before calling.
func (s *Snapshot) Restore() (*board.Board, *core.Router, error) {
	b, err := board.New(s.Design.GridConfig())
	if err != nil {
		return nil, nil, err
	}
	if err := s.Design.PlacePins(b); err != nil {
		return nil, nil, err
	}
	r, err := core.Resume(b, s.Conns, s.Opts, s.Check)
	if err != nil {
		return nil, nil, err
	}
	return b, r, nil
}
