// Package layer implements the paper's Section 4 data representation for
// one signal layer: an array of channels, each holding a doubly linked,
// position-sorted list of segments with a moving head-of-list cursor.
//
// Free space is never stored; it is inferred from the gaps between
// segments. The moving cursor exploits the strong locality of the access
// pattern while routing a single connection — the change from a binary
// tree of segments to this structure halved grr's running time
// (Section 12; the tree variant is kept in this package for the
// corresponding ablation benchmark).
package layer

import (
	"fmt"
	"strings"

	"repro/internal/geom"
	"repro/internal/grid"
)

// ConnID identifies the owner of a segment. Non-negative IDs are routable
// connections; negative IDs are permanent obstacles that the router must
// never rip up.
type ConnID int32

const (
	// NoConn marks "no owner"; it never appears in a stored segment.
	NoConn ConnID = -100
	// PinOwner marks the unit segments occupying pin sites on every layer.
	PinOwner ConnID = -1
	// FillOwner marks temporary tesselation fill (Section 10.2). Fill is
	// permanent from the router's point of view but removable by the
	// tiles package between passes.
	FillOwner ConnID = -2
	// KeepoutOwner marks board-level keepouts (mounting holes, edges).
	KeepoutOwner ConnID = -3
)

// Permanent reports whether segments owned by id may never be ripped up.
func (id ConnID) Permanent() bool { return id < 0 }

// Segment is a used interval [Lo, Hi] of one channel, owned by one
// connection. Segments of a channel never overlap and are kept sorted.
type Segment struct {
	Lo, Hi int
	Owner  ConnID

	prev, next *Segment
	ch         *Channel
}

// Interval returns the occupied range of s.
func (s *Segment) Interval() geom.Interval { return geom.Iv(s.Lo, s.Hi) }

// Channel returns the channel index s lives in, and is only valid while s
// is stored.
func (s *Segment) Channel() int { return s.ch.index }

// Stored reports whether s is currently linked into a channel. A false
// result means the segment handle is stale (its metal was removed).
func (s *Segment) Stored() bool { return s.ch != nil }

// Channel is one routing channel: a doubly linked list of segments sorted
// by position, plus the moving cursor that makes localized probes cheap.
type Channel struct {
	head, tail *Segment
	cursor     *Segment
	length     int
	index      int
	count      int
}

// Layer is one signal layer of the board.
type Layer struct {
	Orient grid.Orientation
	Index  int // position in the board's layer stack

	chans   []Channel
	chanLen int
}

// NewLayer builds an empty layer with the given orientation, channel
// count and channel length, occupying stack position index.
func NewLayer(orient grid.Orientation, index, numChans, chanLen int) *Layer {
	l := &Layer{
		Orient:  orient,
		Index:   index,
		chans:   make([]Channel, numChans),
		chanLen: chanLen,
	}
	for i := range l.chans {
		l.chans[i].length = chanLen
		l.chans[i].index = i
	}
	return l
}

// NumChannels returns the number of channels on the layer.
func (l *Layer) NumChannels() int { return len(l.chans) }

// ChannelLength returns the number of positions along each channel.
func (l *Layer) ChannelLength() int { return l.chanLen }

// Chan returns channel i.
func (l *Layer) Chan(i int) *Channel { return &l.chans[i] }

// Add inserts a segment [lo, hi] owned by owner into channel ch.
// It returns nil if the interval is out of range or collides with an
// existing segment; collisions are an expected outcome while probing
// alternatives, not an error condition.
func (l *Layer) Add(ch, lo, hi int, owner ConnID) *Segment {
	if ch < 0 || ch >= len(l.chans) {
		return nil
	}
	return l.chans[ch].Add(lo, hi, owner)
}

// Remove unlinks a previously added segment.
func (l *Layer) Remove(s *Segment) { s.ch.Remove(s) }

// Index returns the channel index of c within its layer.
func (c *Channel) Index() int { return c.index }

// Len returns the number of segments stored in c.
func (c *Channel) Len() int { return c.count }

// locate positions the cursor on the segment with the smallest Hi >= pos
// and returns it (nil if every segment ends below pos, i.e. pos is above
// the last segment). Starting the walk from the previous cursor position
// is the paper's "moving head-of-list pointer".
func (c *Channel) locate(pos int) *Segment {
	s := c.cursor
	if s == nil {
		s = c.head
		if s == nil {
			return nil
		}
	}
	// Walk toward pos from wherever the last operation left the cursor.
	for s.Hi < pos {
		if s.next == nil {
			c.cursor = s
			return nil
		}
		s = s.next
	}
	for s.prev != nil && s.prev.Hi >= pos {
		s = s.prev
	}
	c.cursor = s
	return s
}

// Add inserts [lo, hi] owned by owner, returning the new segment or nil
// if the interval is invalid, out of channel bounds, or not free.
func (c *Channel) Add(lo, hi int, owner ConnID) *Segment {
	if lo > hi || lo < 0 || hi >= c.length {
		return nil
	}
	after := c.locate(lo) // first segment with Hi >= lo
	if after != nil && after.Lo <= hi {
		return nil // collision
	}
	s := &Segment{Lo: lo, Hi: hi, Owner: owner, ch: c}
	if after == nil {
		// Append at tail.
		s.prev = c.tail
		if c.tail != nil {
			c.tail.next = s
		} else {
			c.head = s
		}
		c.tail = s
	} else {
		s.next = after
		s.prev = after.prev
		after.prev = s
		if s.prev != nil {
			s.prev.next = s
		} else {
			c.head = s
		}
	}
	c.cursor = s
	c.count++
	return s
}

// Remove unlinks s from c. Removing a segment that is not stored in c is
// a logic error and panics.
func (c *Channel) Remove(s *Segment) {
	if s.ch != c {
		panic("layer: Remove of segment from wrong channel")
	}
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		c.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		c.tail = s.prev
	}
	if c.cursor == s {
		if s.next != nil {
			c.cursor = s.next
		} else {
			c.cursor = s.prev
		}
	}
	s.prev, s.next, s.ch = nil, nil, nil
	c.count--
}

// SegmentAt returns the segment covering pos, or nil if pos is free or
// out of range.
func (c *Channel) SegmentAt(pos int) *Segment {
	if pos < 0 || pos >= c.length {
		return nil
	}
	s := c.locate(pos)
	if s != nil && s.Lo <= pos {
		return s
	}
	return nil
}

// Free reports whether pos is unoccupied (false for out-of-range
// positions: off-board space is not usable).
func (c *Channel) Free(pos int) bool {
	if pos < 0 || pos >= c.length {
		return false
	}
	return c.SegmentAt(pos) == nil
}

// FreeInterval returns the maximal free interval containing pos.
// ok is false if pos is occupied or out of range.
func (c *Channel) FreeInterval(pos int) (iv geom.Interval, ok bool) {
	if pos < 0 || pos >= c.length {
		return geom.Interval{}, false
	}
	s := c.locate(pos)
	if s != nil && s.Lo <= pos {
		return geom.Interval{}, false
	}
	lo, hi := 0, c.length-1
	if s != nil {
		hi = s.Lo - 1
		if s.prev != nil {
			lo = s.prev.Hi + 1
		}
	} else if c.tail != nil {
		lo = c.tail.Hi + 1
	}
	return geom.Iv(lo, hi), true
}

// VisitFree calls f for every maximal free interval of c that overlaps
// win, in increasing order, passing the *unclipped* maximal interval.
// Iteration stops early if f returns false. Callers clip to win
// themselves when needed; the unclipped bounds identify the interval
// uniquely, which the search algorithms use as a visited-set key.
func (c *Channel) VisitFree(win geom.Interval, f func(iv geom.Interval) bool) {
	win = win.Intersect(geom.Iv(0, c.length-1))
	if win.Empty() {
		return
	}
	s := c.locate(win.Lo) // first segment with Hi >= win.Lo
	lo := 0
	if s == nil {
		if c.tail != nil {
			lo = c.tail.Hi + 1
		}
		if lo <= c.length-1 {
			f(geom.Iv(lo, c.length-1))
		}
		return
	}
	if s.prev != nil {
		lo = s.prev.Hi + 1
	}
	for {
		if lo <= s.Lo-1 {
			iv := geom.Iv(lo, s.Lo-1)
			if iv.Overlaps(win) && !f(iv) {
				return
			}
			if iv.Lo > win.Hi {
				return
			}
		}
		lo = s.Hi + 1
		if lo > win.Hi {
			return
		}
		if s.next == nil {
			if lo <= c.length-1 {
				f(geom.Iv(lo, c.length-1))
			}
			return
		}
		s = s.next
	}
}

// VisitUsed calls f for every segment of c overlapping win, in increasing
// order. Iteration stops early if f returns false.
func (c *Channel) VisitUsed(win geom.Interval, f func(s *Segment) bool) {
	win = win.Intersect(geom.Iv(0, c.length-1))
	if win.Empty() {
		return
	}
	s := c.locate(win.Lo)
	for s != nil && s.Lo <= win.Hi {
		if !f(s) {
			return
		}
		s = s.next
	}
}

// VisitSegments calls f for every stored segment of the layer, in
// channel order and position order within each channel — a canonical
// traversal, so two layers holding the same metal visit it identically
// regardless of insertion history. Iteration stops early if f returns
// false. Board fingerprinting and snapshot serialization are built on
// it.
func (l *Layer) VisitSegments(f func(ch int, s *Segment) bool) {
	for i := range l.chans {
		for s := l.chans[i].head; s != nil; s = s.next {
			if !f(i, s) {
				return
			}
		}
	}
}

// audit validates the channel invariants, returning a description of the
// first violation found, or "" if the channel is consistent. Tests use it
// after randomized operation sequences.
func (c *Channel) audit() string {
	var prev *Segment
	n := 0
	for s := c.head; s != nil; s = s.next {
		n++
		if s.ch != c {
			return fmt.Sprintf("segment %v has wrong channel backref", s.Interval())
		}
		if s.Lo > s.Hi || s.Lo < 0 || s.Hi >= c.length {
			return fmt.Sprintf("segment %v out of bounds (len %d)", s.Interval(), c.length)
		}
		if s.prev != prev {
			return fmt.Sprintf("segment %v has broken prev link", s.Interval())
		}
		if prev != nil && prev.Hi >= s.Lo {
			return fmt.Sprintf("segments %v and %v overlap or are unsorted", prev.Interval(), s.Interval())
		}
		prev = s
	}
	if c.tail != prev {
		return "tail does not point at last segment"
	}
	if n != c.count {
		return fmt.Sprintf("count %d but %d segments linked", c.count, n)
	}
	if c.cursor != nil {
		found := false
		for s := c.head; s != nil; s = s.next {
			if s == c.cursor {
				found = true
				break
			}
		}
		if !found {
			return "cursor points at unlinked segment"
		}
	}
	return ""
}

// Audit validates every channel of the layer; see Channel audit.
func (l *Layer) Audit() error {
	for i := range l.chans {
		if msg := l.chans[i].audit(); msg != "" {
			return fmt.Errorf("layer %d channel %d: %s", l.Index, i, msg)
		}
	}
	return nil
}

// Dump renders the layer as ASCII art for debugging: one row per channel,
// '.' for free and the last hex digit of the owner for used positions.
func (l *Layer) Dump() string {
	var b strings.Builder
	for i := range l.chans {
		row := make([]byte, l.chanLen)
		for j := range row {
			row[j] = '.'
		}
		for s := l.chans[i].head; s != nil; s = s.next {
			mark := byte('#')
			if s.Owner >= 0 {
				mark = "0123456789abcdef"[int(s.Owner)%16]
			} else {
				switch s.Owner {
				case PinOwner:
					mark = 'P'
				case FillOwner:
					mark = 'F'
				case KeepoutOwner:
					mark = 'K'
				}
			}
			for p := s.Lo; p <= s.Hi; p++ {
				row[p] = mark
			}
		}
		fmt.Fprintf(&b, "%4d |%s|\n", i, row)
	}
	return b.String()
}
