package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Remote carries requests from the router to one shard process over HTTP.
// The router owns *where* a request goes (the consistent-hash Ring) and
// *whether* the shard should get it (health probes that also check the
// shard's ring position); Remote owns carrying it there. It forwards routed
// requests verbatim (method, path, query, headers — X-Tenant included — and
// body) and copies the shard's response back unchanged, so the forwarding
// contract holds byte-for-byte: a quota 429 through the router carries the
// same status, JSON error body and Retry-After header as one from a
// single-process server.
//
// Remote is safe for concurrent use; its http.Client keeps per-host
// connections pooled across requests.
type Remote struct {
	base   *url.URL
	client *http.Client
}

// NewRemote builds the backend for a shard process at addr ("host:port" or
// a full http:// URL).
func NewRemote(addr string) (*Remote, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return nil, fmt.Errorf("shard address %q: %w", addr, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("shard address %q: unsupported scheme %q", addr, u.Scheme)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("shard address %q: missing host", addr)
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	tr := http.DefaultTransport
	if dt, ok := tr.(*http.Transport); ok {
		c := dt.Clone()
		c.MaxIdleConnsPerHost = 32
		tr = c
	}
	// No client timeout: mining requests are legitimately long-running and
	// bounded by their own contexts (the shard's -mine-timeout, the client
	// disconnecting). Probes pass their own deadline through ctx.
	return &Remote{base: u, client: &http.Client{Transport: tr}}, nil
}

// hopHeaders are connection-level headers that must not be copied between
// the shard's response and the router's (RFC 7230 §6.1).
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// Serve forwards r to the shard process and copies the response back
// byte-for-byte. A transport failure before any response arrived returns
// the error with nothing written, so the caller still owns the response
// (and typically answers 503); once the shard's status has been committed
// to w, a mid-body failure can only truncate.
func (b *Remote) Serve(w http.ResponseWriter, r *http.Request) error {
	out := r.Clone(r.Context())
	out.URL.Scheme = b.base.Scheme
	out.URL.Host = b.base.Host
	out.URL.Path = b.base.Path + r.URL.Path
	out.RequestURI = "" // client requests must not set it
	out.Host = ""       // let the transport derive Host from the target URL
	for _, h := range hopHeaders {
		out.Header.Del(h)
	}
	resp, err := b.client.Do(out)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dst := w.Header()
	for k, vv := range resp.Header {
		if isHopHeader(k) {
			continue
		}
		dst[k] = vv
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return nil
}

func isHopHeader(k string) bool {
	for _, h := range hopHeaders {
		if http.CanonicalHeaderKey(k) == h {
			return true
		}
	}
	return false
}

// Fetch GETs path on the shard and decodes the JSON body into v. Any non-2xx
// status is an error: Fetch is the router's structured side channel for
// aggregation (GET /db, /jobs, /shards) and /healthz probing, where anything
// but success means "leave this shard out".
func (b *Remote) Fetch(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base.String()+path, nil)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s%s: status %d", b.Addr(), path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Addr identifies the shard for logs and errors: its base URL.
func (b *Remote) Addr() string { return b.base.String() }

// Close drops idle pooled connections; requests still in flight finish on
// their own connections.
func (b *Remote) Close() error {
	b.client.CloseIdleConnections()
	return nil
}
