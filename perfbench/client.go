package main

import (
	"bytes"
	"net/http"
	"strconv"

	"gogreen/internal/server"
)

// Request classes of the end-to-end latency metrics.
type class uint8

const (
	classHit   class = iota // mine answered by filtering a rung
	classMined              // mine that ran a miner and installed a rung
	classWrite              // PUT or DELETE
	classBad                // response the classification does not accept
)

// classify maps a request to its latency class: mines by the response's
// "cache" field, writes by method.
func classify(kind opKind, cache string) class {
	if kind != opMine {
		return classWrite
	}
	switch cache {
	case "hit":
		return classHit
	case "relax", "miss":
		return classMined
	}
	return classBad
}

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

// client calls the service handler in-process — no sockets, so a request's
// latency is the service stack alone.
type client struct {
	h  http.Handler
	rw respWriter
}

func newClient(h http.Handler) *client {
	return &client{h: h, rw: respWriter{hdr: http.Header{}}}
}

// do sends one request and returns the status and the handler's wall time.
// The response body stays in c.rw.body until the next call.
func (c *client) do(method, path, tenant string, body []byte, clock func() int64) (code int, start, end int64, err error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, 0, err
	}
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	c.rw.code = 0
	c.rw.body.Reset()
	for k := range c.rw.hdr {
		delete(c.rw.hdr, k)
	}
	start = clock()
	c.h.ServeHTTP(&c.rw, req)
	end = clock()
	return c.rw.code, start, end, nil
}

// mineResp is the part of a mine response the checks read.
type mineResp struct {
	Count       int    `json:"count"`
	Cache       string `json:"cache"`
	SavedAs     string `json:"saved_as"`
	SaveSkipped bool   `json:"save_skipped"`
}

func mineBody(xi float64, save string) []byte {
	b := []byte(`{"min_support":`)
	b = strconv.AppendFloat(b, xi, 'g', -1, 64)
	if save != "" {
		b = append(b, `,"save_as":"`...)
		b = append(b, save...)
		b = append(b, '"')
	}
	return append(b, '}')
}
