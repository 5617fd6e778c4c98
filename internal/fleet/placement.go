package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/server"
)

// specKey is a job's placement key: FNV-64a over the design text, the
// connection list, and the RESOLVED router-option vector — the spec's
// options applied over core.DefaultOptions, every recognized name in
// codec order, exactly as the node's buildSnapshot resolves them. Two
// submissions with the same key describe the same routing problem, so
// rendezvous places them on the same node.
//
// Hashing the resolved vector instead of the raw submission map means
// a spec that spells out a default keys identically to one that omits
// it, and every algorithmic option the codec knows (engine, cost
// function, radius, …) is structurally present in the key.
// Unrecognized option names (the node will reject the spec with a 400
// anyway) are hashed raw so a bad spec never aliases a good one. The
// key is part of the placement contract: changing what it hashes moves
// jobs between nodes.
func specKey(spec server.JobSpec) uint64 {
	h := fnv.New64a()
	h.Write([]byte(spec.Design))
	h.Write([]byte{0})
	h.Write([]byte(spec.Conns))
	h.Write([]byte{0})
	opts := core.DefaultOptions()
	var unknown []string
	for k, v := range spec.Options {
		if err := boardio.ApplyOption(&opts, k, v); err != nil {
			unknown = append(unknown, k)
		}
	}
	for i, v := range boardio.OptionInts(&opts) {
		h.Write([]byte(strconv.Itoa(i)))
		h.Write([]byte{'='})
		h.Write([]byte(strconv.FormatInt(v, 10)))
		h.Write([]byte{0})
	}
	sort.Strings(unknown)
	for _, k := range unknown {
		h.Write([]byte(k))
		h.Write([]byte{'='})
		h.Write([]byte(strconv.FormatInt(spec.Options[k], 10)))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// rendezvous scores one (node, job-key) pair for highest-random-weight
// placement: every coordinator computes the same ranking from the same
// fleet view, no shared state needed, and a node joining or leaving
// only reshuffles the jobs that hashed to it.
func rendezvous(nodeName string, key uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(nodeName))
	h.Write([]byte{0})
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(key >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}
