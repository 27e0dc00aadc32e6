package span

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// StageJSON is one waterfall segment of a dumped trace.
type StageJSON struct {
	Stage string  `json:"stage"`
	NS    int64   `json:"ns"`
	Frac  float64 `json:"frac"` // share of the op's total
}

// RecordJSON is the wire form of one captured trace on /debug/ops.
type RecordJSON struct {
	ID       uint64      `json:"id"`
	Kind     string      `json:"kind"`
	Key      uint64      `json:"key"`
	Shard    int32       `json:"shard"`
	Batch    uint16      `json:"batch,omitempty"`
	Attempts uint8       `json:"attempts,omitempty"`
	Flags    []string    `json:"flags,omitempty"`
	StartNS  int64       `json:"start_ns"` // ns since tracer start
	TotalNS  int64       `json:"total_ns"`
	StageSum int64       `json:"stage_sum_ns"`
	Stages   []StageJSON `json:"stages"` // zero-duration stages omitted
}

// OpsDump is the /debug/ops response body.
type OpsDump struct {
	Recorded      uint64       `json:"recorded"` // spans finished since start
	Captured      uint64       `json:"captured"` // spans written to rings
	TailThreshold float64      `json:"tail_threshold_seconds"`
	Ops           []RecordJSON `json:"ops"` // slowest first
}

// toJSON converts a Record for the dump.
func (r *Record) toJSON() RecordJSON {
	out := RecordJSON{
		ID:       r.ID,
		Kind:     r.Kind.String(),
		Key:      r.Key,
		Shard:    r.Shard,
		Batch:    r.Batch,
		Attempts: r.Attempts,
		Flags:    r.Flags.Names(),
		StartNS:  r.Start,
		TotalNS:  r.Total,
		StageSum: r.StageSum(),
	}
	for i := Stage(0); i < NumStages; i++ {
		if d := r.Stages[i]; d > 0 {
			frac := 0.0
			if r.Total > 0 {
				frac = float64(d) / float64(r.Total)
			}
			out.Stages = append(out.Stages, StageJSON{Stage: i.String(), NS: d, Frac: frac})
		}
	}
	return out
}

// Handler serves the captured traces as JSON waterfalls, slowest first.
// Query parameters: ?n=50 caps the count (default 50, max 1000);
// ?id=123 returns only the record with that capture ID (404 if it has
// already been overwritten).
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		if idStr := req.URL.Query().Get("id"); idStr != "" {
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				http.Error(w, "bad id", http.StatusBadRequest)
				return
			}
			for _, rec := range t.Snapshot() {
				if rec.ID == id {
					w.Header().Set("Content-Type", "application/json")
					enc := json.NewEncoder(w)
					enc.SetIndent("", "  ")
					_ = enc.Encode(rec.toJSON())
					return
				}
			}
			http.Error(w, "span not found (evicted from ring?)", http.StatusNotFound)
			return
		}

		n := 50
		if nStr := req.URL.Query().Get("n"); nStr != "" {
			if v, err := strconv.Atoi(nStr); err == nil && v > 0 {
				n = v
			}
		}
		if n > 1000 {
			n = 1000
		}

		recorded, captured := t.Stats()
		dump := OpsDump{
			Recorded:      recorded,
			Captured:      captured,
			TailThreshold: t.TailThreshold().Seconds(),
			Ops:           []RecordJSON{},
		}
		for _, rec := range t.Slowest(n) {
			rec := rec
			dump.Ops = append(dump.Ops, rec.toJSON())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(dump)
	})
}

// Waterfall renders one record as a human-readable single line, e.g.
//
//	#12 miss key=42 shard=3 2.1ms [queue_wait 3% | fetch 92% | miss 5%] attempts=2 flags=retried,tail
//
// for logs and the console view.
func (r *Record) Waterfall() string {
	out := "#" + strconv.FormatUint(r.ID, 10) + " " + r.Kind.String() +
		" key=" + strconv.FormatUint(r.Key, 10) +
		" shard=" + strconv.Itoa(int(r.Shard)) +
		" " + time.Duration(r.Total).String() + " ["
	first := true
	for i := Stage(0); i < NumStages; i++ {
		d := r.Stages[i]
		if d <= 0 {
			continue
		}
		if !first {
			out += " | "
		}
		first = false
		pct := int64(0)
		if r.Total > 0 {
			pct = d * 100 / r.Total
		}
		out += i.String() + " " + strconv.FormatInt(pct, 10) + "%"
	}
	out += "]"
	if r.Attempts > 0 {
		out += " attempts=" + strconv.Itoa(int(r.Attempts))
	}
	if names := r.Flags.Names(); len(names) > 0 {
		out += " flags="
		for i, n := range names {
			if i > 0 {
				out += ","
			}
			out += n
		}
	}
	return out
}
