package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// bodyTransport answers every request with its bytes as a
// text/event-stream body, so streamSSE runs without opening a socket.
type bodyTransport []byte

func (b bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"text/event-stream"}},
		Body:       io.NopCloser(bytes.NewReader(b)),
		Request:    req,
	}, nil
}

// FuzzStreamSSE feeds arbitrary bytes to the SSE frame loop as both a
// job stream and a study stream. The loop must never panic; it must
// return a terminal frame or errNoStream; onUpdate must see every
// frame decoded before the stream stops, in order, and the returned
// frame must be the last of them. Input with every line that starts
// with "data" disarmed, followed by one valid terminal event, must
// return that event's frame.
func FuzzStreamSSE(f *testing.F) {
	jobDone := func(j *Job) bool { return j.Status.Terminal() }
	studyDone := func(s *Study) bool { return s.Status.Terminal() }
	f.Fuzz(func(t *testing.T, body []byte) {
		checkStream(t, body, jobDone)
		checkStream(t, body, studyDone)

		noise := strings.ReplaceAll("\n"+string(body), "\ndata", "\n:data")[1:]
		checkNoiseThenDone(t, noise, `{"id":"j-1","status":"done"}`, jobDone)
		checkNoiseThenDone(t, noise, `{"id":"s-1","status":"done","done":1,"total":1}`, studyDone)
	})
}

// sseStream runs streamSSE over body and returns its result and every
// frame onUpdate saw.
func sseStream[T any](body []byte, terminal func(*T) bool) (*T, []*T, error) {
	c := New("http://sse.invalid", &http.Client{Transport: bodyTransport(body)})
	var seen []*T
	got, err := streamSSE(context.Background(), c, "/events", terminal, func(v *T) { seen = append(seen, v) })
	return got, seen, err
}

// sseEvents reads body as the event-stream format defines it. Lines
// end at "\n", dropping one "\r" before it, and any text after the
// last "\n" is one more line (as bufio.ScanLines reads it, so a
// trailing "\r" is a blank line). A line whose field name, the text
// before its first ":", is "data" adds its value, minus one leading
// space, to the event; a blank line ends an event that has any data
// lines, joined with "\n"; every other line is skipped, and an event
// the end of body cuts off is dropped.
func sseEvents(body string) []string {
	lines := strings.Split(body, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	var events, event []string
	for _, line := range lines {
		line = strings.TrimSuffix(line, "\r")
		if line == "" {
			if event != nil {
				events = append(events, strings.Join(event, "\n"))
			}
			event = nil
			continue
		}
		if name, value, _ := strings.Cut(line, ":"); name == "data" {
			event = append(event, strings.TrimPrefix(value, " "))
		}
	}
	return events
}

// checkStream checks streamSSE over body against sseEvents: each event
// carries one JSON frame, and the stream stops at the first terminal
// frame or the first event that does not decode.
func checkStream[T any](t *testing.T, body []byte, terminal func(*T) bool) {
	t.Helper()
	var want []*T
	ended := false
	for _, event := range sseEvents(string(body)) {
		v := new(T)
		if json.Unmarshal([]byte(event), v) != nil {
			break
		}
		want = append(want, v)
		if terminal(v) {
			ended = true
			break
		}
	}

	got, seen, err := sseStream(body, terminal)
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("%T: onUpdate saw %d frames, want %d", got, len(seen), len(want))
	}
	if !ended {
		if !errors.Is(err, errNoStream) || got != nil {
			t.Fatalf("%T: stream without a terminal frame returned (%v, %v), want errNoStream", got, got, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%T: stream with a terminal frame failed: %v", got, err)
	}
	if got != seen[len(seen)-1] || !terminal(got) {
		t.Fatalf("%T: returned frame is not the terminal frame onUpdate saw last", got)
	}
}

// checkNoiseThenDone runs streamSSE over noise, in which no line
// starts with "data", then one event carrying frame, a valid terminal
// frame, and fails t unless that frame comes back and is the only one
// onUpdate saw.
func checkNoiseThenDone[T any](t *testing.T, noise, frame string, terminal func(*T) bool) {
	t.Helper()
	want := new(T)
	if err := json.Unmarshal([]byte(frame), want); err != nil || !terminal(want) {
		t.Fatalf("%T: bad terminal frame %s: %v", want, frame, err)
	}
	got, seen, err := sseStream([]byte(noise+"\ndata: "+frame+"\n\n"), terminal)
	if err != nil || len(seen) != 1 || got != seen[0] || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: noise then a terminal frame returned (%+v, %v) after %d frames", want, got, err, len(seen))
	}
}
