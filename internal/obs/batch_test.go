package obs

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"
)

// batchEvents returns n events cycling through every kind (plus one
// unknown kind), with varying rounds, UEs, BSs, times and shards.
func batchEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{
			Kind:  EventKind(i % (len(kindNames) + 1)),
			Round: 1 + i/5,
			UE:    i - 1,
			BS:    i%4 - 1,
			TimeS: float64(i%3) * 0.25,
			Shard: i % 2,
		}
	}
	return out
}

// recorderPair builds two identical recorders, each over its own
// registry and sink; newWriter makes each sink's JSONL writer (nil for
// none).
func recorderPair(ring int, newWriter func() io.Writer) (single, batch *Recorder) {
	mk := func() *Recorder {
		var w io.Writer
		if newWriter != nil {
			w = newWriter()
		}
		return NewRecorder(NewRegistry(), NewSink(w, ring))
	}
	return mk(), mk()
}

// assertSameRecord fails unless both recorders hold the same sequence
// total, ring contents (Seq included), writer error state and per-kind
// counters.
func assertSameRecord(t *testing.T, single, batch *Recorder) {
	t.Helper()
	if a, b := single.Sink().Total(), batch.Sink().Total(); a != b {
		t.Fatalf("sequence total: single %d, batch %d", a, b)
	}
	if a, b := single.Sink().Events(), batch.Sink().Events(); !reflect.DeepEqual(a, b) {
		t.Fatalf("ring contents differ:\nsingle %+v\n batch %+v", a, b)
	}
	if a, b := single.Sink().Err(), batch.Sink().Err(); (a == nil) != (b == nil) {
		t.Fatalf("writer error: single %v, batch %v", a, b)
	}
	var a, b bytes.Buffer
	if err := single.Registry().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := batch.Registry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("counters differ:\nsingle %s\n batch %s", a.String(), b.String())
	}
}

// TestEventsMatchesSingleEmits pins Recorder.Events and Sink.EmitBatch
// to one Event call per element: same Seqs, ring, JSONL bytes and
// counters, including batches larger than the ring, empty batches, and
// batches emitted after earlier single events.
func TestEventsMatchesSingleEmits(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ring    int
		prelude int
		batches []int
		writer  bool
	}{
		{"larger-than-ring", 8, 3, []int{50}, true},
		{"larger-than-ring-no-writer", 8, 3, []int{50, 7, 9}, false},
		{"exactly-ring", 8, 0, []int{8, 8}, false},
		{"empty", 8, 5, []int{0}, true},
		{"empty-first", 4, 0, []int{0, 3}, false},
		{"many-small", 16, 2, []int{1, 2, 3, 5, 8, 13}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bufs []*bytes.Buffer
			var newWriter func() io.Writer
			if tc.writer {
				newWriter = func() io.Writer {
					b := new(bytes.Buffer)
					bufs = append(bufs, b)
					return b
				}
			}
			single, batch := recorderPair(tc.ring, newWriter)
			for _, e := range batchEvents(tc.prelude) {
				single.emit(e)
				batch.emit(e)
			}
			for _, n := range tc.batches {
				events := batchEvents(n)
				orig := append([]Event(nil), events...)
				for _, e := range events {
					single.emit(e)
				}
				batch.Events(events)
				if !slices.Equal(events, orig) {
					t.Fatal("Events modified the caller's slice")
				}
				assertSameRecord(t, single, batch)
			}
			if tc.writer && bufs[0].String() != bufs[1].String() {
				t.Fatalf("JSONL differs:\nsingle %q\n batch %q", bufs[0].String(), bufs[1].String())
			}
		})
	}
}

// TestEmitBatchWriterFailsMidBatch pins the broken-writer contract of
// the batch path: the write that fails is the last one attempted, the
// events after it still reach the ring and the sequence, and a later
// batch writes nothing — exactly what single Emits do.
func TestEmitBatchWriterFailsMidBatch(t *testing.T) {
	cs, cb := &countWriter{w: &errWriter{n: 6}}, &countWriter{w: &errWriter{n: 6}}
	single := NewRecorder(NewRegistry(), NewSink(cs, 8))
	batch := NewRecorder(NewRegistry(), NewSink(cb, 8))

	for _, e := range batchEvents(2) {
		single.emit(e)
		batch.emit(e)
	}
	for _, n := range []int{10, 20} {
		events := batchEvents(n)
		for _, e := range events {
			single.emit(e)
		}
		batch.Events(events)
		assertSameRecord(t, single, batch)
	}
	if batch.Sink().Err() == nil {
		t.Fatal("writer error not surfaced")
	}
	// 6 good writes plus the failing one; nothing after the failure.
	if cs.calls != 7 || cb.calls != cs.calls {
		t.Fatalf("writer calls: single %d, batch %d, want 7", cs.calls, cb.calls)
	}
}

// countWriter counts Write calls through to w.
type countWriter struct {
	w     io.Writer
	calls int
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.calls++
	return c.w.Write(p)
}

// TestEventsNilSafe pins the nil-recorder and nil-sink no-ops.
func TestEventsNilSafe(t *testing.T) {
	var rec *Recorder
	rec.Events(batchEvents(3))
	var sink *Sink
	sink.EmitBatch(batchEvents(3))
	NewRecorder(NewRegistry(), nil).Events(batchEvents(3))
	NewRecorder(nil, NewSink(nil, 2)).Events(batchEvents(3))
}
