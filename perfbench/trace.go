package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lb"
	"repro/internal/service"
)

// span is one traced interval: a client request, an lb front request,
// one lb upstream attempt, or a replica's handling of a request.
// Spans of one request link through parent ids.
type span struct {
	id, parent uint64
	name       string
	iv         interval
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64                { return t.ids.Add(1) }
func (t *tracer) at(x time.Time) time.Duration { return x.Sub(t.t0) }

// all returns the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type spanKey struct{}

// handler wraps h in a span named name whose parent is the id in the
// request's spanHeader; the span id rides in the request context so an
// outgoing round trip can name it as its parent.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64) // absent: a root span
		id := t.newID()
		t0 := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.add(span{id: id, parent: parent, name: name, iv: interval{t.at(t0), t.at(time.Now())}})
	})
}

// tracingTransport records one "lb.upstream" span per attempt the lb
// makes, from dial to the response body's Close, and forwards the span
// id so the replica's span links to it.
type tracingTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	id := tt.t.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	t0 := time.Now()
	end := func() {
		tt.t.add(span{id: id, parent: parent, name: "lb.upstream", iv: interval{tt.t.at(t0), tt.t.at(time.Now())}})
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// inproc is the traced fleet: the same service and lb code as the
// daemons, hosted in the benchmark process behind span handlers. An lb
// always fronts the replicas, even for workloads that run without one
// end to end, so the lb's layer metrics are measured on every workload
// (there they predict no change).
type inproc struct {
	servers  []*http.Server
	done     []chan struct{}
	router   *lb.Router
	replicas []string
	base     string
}

func startInproc(w *workload, tr *tracer) (*inproc, error) {
	f := &inproc{}
	for i := 0; i < max(w.replicas, 1); i++ {
		svc := service.New(service.Config{Workers: w.workers, CacheBytes: w.cacheBytes, AccessLog: io.Discard})
		base, err := f.serve(tr.handler("service", svc.Handler()))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, base)
	}
	base := http.DefaultTransport.(*http.Transport).Clone()
	rt, err := lb.New(lb.Config{
		Replicas:  f.replicas,
		Client:    &http.Client{Transport: &tracingTransport{t: tr, base: base}},
		AccessLog: io.Discard,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rt
	rt.Start()
	if f.base, err = f.serve(tr.handler("lb", rt.Handler())); err != nil {
		f.stop()
		return nil, err
	}
	if err := waitReady(f.base, len(f.replicas)); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *inproc) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			panic(err) // a loopback listener the process owns does not fail
		}
	}()
	f.servers = append(f.servers, hs)
	f.done = append(f.done, done)
	return "http://" + ln.Addr().String(), nil
}

// stop shuts every server down and waits for the serve loops to return.
func (f *inproc) stop() {
	if f.router != nil {
		f.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, hs := range f.servers {
		// Shutdown waits for handlers to return, so their spans are in.
		if err := hs.Shutdown(ctx); err != nil {
			_ = hs.Close() // past the grace period: drop what is left
		}
		<-f.done[i]
	}
}
