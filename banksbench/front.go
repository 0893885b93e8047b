package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"
)

// httpFront serves a handler on a loopback port and is the client side of
// the closed loop.
type httpFront struct {
	srv    *http.Server
	base   string
	done   chan error
	client *http.Client
}

func listen(h http.Handler) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &httpFront{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
	}
	go func() { f.done <- f.srv.Serve(ln) }()
	return f, nil
}

// get fetches path and returns the body and status code.
func (f *httpFront) get(path string) ([]byte, int, error) {
	resp, err := f.client.Get(f.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// search sends one /search request and times it from send to last byte.
func (f *httpFront) search(text string) ([]byte, time.Duration, error) {
	start := time.Now()
	body, status, err := f.get("/search?q=" + url.QueryEscape(text))
	lat := time.Since(start)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/search %q: status %d", text, status)
	}
	return body, lat, err
}

// debugGauge reads one gauge from /debug/vars.
func (f *httpFront) debugGauge(name string) (int64, error) {
	body, status, err := f.get("/debug/vars")
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("/debug/vars: status %d", status)
	}
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return 0, fmt.Errorf("/debug/vars: %w", err)
	}
	return snap.Gauges[name], nil
}

// close stops the server and waits for it to exit.
func (f *httpFront) close() {
	f.client.CloseIdleConnections()
	_ = f.srv.Close() // the Serve error below is the one that matters
	<-f.done
}
