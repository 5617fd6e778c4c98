// Design edits (DESIGN §15.2). An edited design is routed from scratch:
// EditConns derives its connection list, the caller prepares its board,
// and New routes it like any other design.

package core

import (
	"repro/internal/board"
	"repro/internal/geom"
)

// EditOp enumerates the design edits EditConns understands.
type EditOp uint8

const (
	// EditBlock declares a board rectangle newly forbidden. The caller
	// realizes the keepout on the edited board (board.PlaceKeepout,
	// before routing); the connection list does not change.
	EditBlock EditOp = iota
	// EditRemoveNet drops every connection of the named net. The
	// connections stay in the list as zero-length placeholders so the
	// surviving connections keep their indices (and thus their
	// segment-owner IDs).
	EditRemoveNet
	// EditAddConn appends a new connection.
	EditAddConn
)

// Edit is one design edit. Exactly the fields its Op names are read.
type Edit struct {
	Op   EditOp
	Rect geom.Rect  // EditBlock: the newly forbidden rectangle
	Net  string     // EditRemoveNet: the net to drop
	Conn Connection // EditAddConn: the connection to add
}

// EditConns derives the edited connection list: removed nets are
// trivialized in place (A == B placeholders, preserving every other
// connection's index) and added connections are appended.
func EditConns(conns []Connection, edits []Edit) []Connection {
	out := append([]Connection(nil), conns...)
	for _, e := range edits {
		switch e.Op {
		case EditRemoveNet:
			for i := range out {
				if out[i].Net == e.Net {
					out[i].B = out[i].A
				}
			}
		case EditAddConn:
			out = append(out, e.Conn)
		}
	}
	return out
}

// Reroute returns a router, not yet run, for the edited design: b2 is
// the edited board, prepared by the caller exactly as for a fresh run,
// and the connections are EditConns(r.Conns, edits). It routes under
// r's options, adjusted by tweak when tweak is non-nil. New callers
// call New(b2, EditConns(r.Conns, edits), opts) themselves; Reroute
// goes once the benchmark's eco workload stops calling it.
func (r *Router) Reroute(b2 *board.Board, edits []Edit, tweak func(*Options)) (*Router, error) {
	opts := r.Opts
	if tweak != nil {
		tweak(&opts)
	}
	return New(b2, EditConns(r.Conns, edits), opts)
}

// IncStats reports zero adopted and zero re-routed connections: every
// edit routes from scratch.
//
// Deprecated: it stays until the benchmark's eco workload stops calling
// it.
func (r *Router) IncStats() (adopted, rerouted int) { return 0, 0 }
