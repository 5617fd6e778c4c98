package fleet

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/server"
)

// Jobs in transit (DESIGN §12.3). The coordinator carries a job from one
// node to another in three ways: fence recovers a live record from a
// fenced node's journal, the broker steals the waiting job a node names
// for an idle worker elsewhere, and a straggler is moved (§14). Each is
// one entry in Coordinator.transits, keyed by job ID, which every sweep
// advances by one step in its own goroutine, and each offers its record
// to the same homes. A job has at most one entry, and a job in transit
// is neither stolen nor moved again until its entry ends.
type transit struct {
	// from is the node the job leaves. While rec is nil, a step asks it
	// for the job.
	from *node
	// rec is the job's record once in hand.
	rec *server.Job
	// doubt is the node an offer of rec went to whose answer was lost: the
	// job may be live there, so rec goes nowhere else until that node
	// answers a re-offer or is gone.
	doubt *node
	// steal marks a broker steal and move a straggler move: what a
	// delivery counts. A record recovered from a journal, or one whose
	// offer's answer was lost, has neither.
	steal, move bool
	// busy is set while a step runs; that step alone writes the entry.
	busy bool
}

// on is the node a step depends on: the donor while no record is in
// hand, else the node in doubt, if any.
func (t *transit) on() *node {
	if t.rec == nil {
		return t.from
	}
	return t.doubt
}

// liveLocked returns the node that answers for n — the same name on the
// same journal dir — while it is alive, else nil. A name that rejoined on
// another journal dir is another node. Callers hold mu.
func (c *Coordinator) liveLocked(n *node) *node {
	if n == nil {
		return nil
	}
	if cur := c.nodes[n.Name]; cur.alive() && cur.Journal == n.Journal {
		return cur
	}
	return nil
}

// startLocked makes t job id's entry and runs one step of it in its own
// goroutine: the steal of a running job waits for the attempt's next
// abort check, which must hold up neither the sweep nor other entries.
// Only the sweep starts steps, after it fences, so a node the entry
// depends on that is gone by now writes its journal no more, and the
// step may read that journal as final. Callers hold mu.
func (c *Coordinator) startLocked(id string, t *transit) {
	c.transits[id] = t
	c.obs.pendingGauge.Set(int64(len(c.transits)))
	var addr string
	if n := c.liveLocked(t.on()); n != nil {
		addr = n.Addr
	}
	t.busy = true
	c.stopWg.Add(1)
	go c.step(id, t, addr)
}

// step advances job id's entry once: it gets the job's record, then
// offers it. addr is the address of the node the step depends on while
// that node lives, "" once it is gone. The entry ends once a node takes
// the record or the job turns out settled; else the next sweep steps it.
func (c *Coordinator) step(id string, t *transit, addr string) {
	defer c.stopWg.Done()
	s := *t // this step's copy, written back at the end
	var end bool
	var err error
	if s.rec == nil || s.doubt != nil && addr == "" {
		end, err = c.take(id, &s, addr)
	}
	var to *node
	if !end && err == nil {
		to, err = c.offer(s.rec, c.homes(&s))
	}
	switch {
	case err == nil:
	case s.rec == nil && s.move:
		c.log.Log("fleet_move_error", "job", id, "node", s.from.Name, "err", err.Error())
	case s.rec == nil && s.steal:
		c.log.Log("fleet_steal_error", "job", id, "node", s.from.Name, "err", err.Error())
	default:
		c.log.Log("fleet_handoff_wait", "job", id, "err", err.Error())
	}
	if !end && err == nil {
		// Before the entry ends, so a job is always in transit or where the
		// coordinator says.
		c.moveJob(id, to.Name, s.rec.Deadline, time.Time{})
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case end:
		delete(c.transits, id)
	case err != nil || c.liveLocked(to) == nil:
		if to != nil {
			// The answer was lost, or to took the job and was fenced while
			// the offer ran, its fence leaving the job in transit to this
			// entry: the job may be live on to. Wherever it lands now, it
			// lands as a handoff.
			s.doubt, s.steal, s.move = to, false, false
		}
		s.busy = false
		*t = s
	default:
		delete(c.transits, id)
		switch {
		case to.Name == s.from.Name: // back on its donor, it counts nothing
		case s.steal:
			c.obs.steals.Inc()
			c.log.Log("fleet_steal", "job", id, "from", s.from.Name, "to", to.Name)
		case s.move:
			c.obs.moves.Inc()
			c.log.Log("fleet_move", "job", id, "from", s.from.Name, "to", to.Name)
		default:
			c.obs.handoffs.Inc()
			c.log.Log("fleet_handoff", "job", id, "to", to.Name, "attempt", s.rec.Attempt)
		}
	}
	c.obs.pendingGauge.Set(int64(len(c.transits)))
}

// take gets job id's record into s. A live donor (addr) is asked for the
// job by ID — a running attempt stops at its next abort check — and a job
// that settled first ends the entry. The donor journals handed_off before
// it answers, so an ask after a lost answer meets a 409 handed_off and
// reads the record from the donor's journal; nothing else takes a job in
// transit, so that record is this steal's. A gone node's journal is read
// the same way, and is final: a live record is the job's newest durable
// state, carried on as a record recovered from that node, and a terminal
// one ends the entry (fence served its result). A node in doubt that
// holds the job handed_off, or not at all, never took the offer.
func (c *Coordinator) take(id string, s *transit, addr string) (end bool, err error) {
	on := s.on()
	if addr != "" {
		rec, st, err := c.stealFrom(addr, id)
		switch {
		case err != nil:
			return false, err
		case rec != nil:
			s.rec = rec
			return false, nil
		case st != server.StateHandedOff:
			return true, nil
		}
	}
	rec, err := server.LoadRecord(on.Journal, id)
	switch {
	case errors.Is(err, fs.ErrNotExist) && s.rec != nil:
		s.doubt = nil
	case err != nil:
		return false, err
	case rec.State.Terminal():
		return true, nil
	case rec.State.Live() && addr != "":
		// The degraded disk refused the handoff record; it is written when
		// the disk heals.
		return false, fmt.Errorf("fleet: %s is %s in %s's journal", id, rec.State, on.Name)
	case rec.State.Live():
		c.obs.recoveredJobs.Inc()
		c.log.Log("fleet_job_recovered", "job", id, "from", on.Name,
			"state", string(rec.State), "attempt", rec.Attempt)
		*s = transit{from: on, rec: rec}
	case s.rec == nil:
		s.rec = rec
	default:
		s.doubt = nil
	}
	return false, nil
}

// homes lists the live nodes s's record may be offered to, best first:
// the node in doubt alone, while the job may be live there; else the
// candidates other than the donor, then the donor while it lives.
func (c *Coordinator) homes(s *transit) []*node {
	cands := c.candidates()
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.doubt != nil {
		if n := c.liveLocked(s.doubt); n != nil {
			return []*node{n}
		}
		return nil
	}
	donor := c.liveLocked(s.from)
	var homes []*node
	for _, n := range cands {
		if donor == nil || n.Name != donor.Name {
			homes = append(homes, n)
		}
	}
	if donor != nil {
		homes = append(homes, donor)
	}
	return homes
}
