package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"lusail/internal/erh"
	"lusail/internal/sparql"
)

// DefaultMaxResponseBytes caps how much of an endpoint response the client
// will consume when HTTPOptions does not set a limit: 256 MiB, the
// historical materialization cap.
const DefaultMaxResponseBytes = 256 << 20

// acceptResults asks for TSV with back-references, which only this
// module's endpoints and lusaild offer, then for TSV, the cheaper standard
// format to write and to decode, and takes JSON from endpoints that offer
// neither.
const acceptResults = "text/x-lusail-tsv-refs, text/tab-separated-values;q=0.95, application/sparql-results+json;q=0.9"

// acceptBoolean is the Accept header of an ASK query. SPARQL TSV has no
// boolean form, and an endpoint that honours a TSV-first header may answer
// an ASK as a one-variable table (Jena writes "?_askResult\ntrue"), which
// client.Boolean would reject.
const acceptBoolean = "application/sparql-results+json"

// HTTPOptions configures an HTTP endpoint client.
type HTTPOptions struct {
	// Client supplies the http.Client (timeouts, transports, test
	// doubles); nil uses a client with a 5-minute timeout whose transport
	// keeps erh.DefaultLimit idle connections per host, so a full ERH pool
	// of requests reuses its connections.
	Client *http.Client
	// MaxResponseBytes caps the size of a single response body. A response
	// that exceeds it fails with a typed EndpointError wrapping
	// ErrResponseTooLarge — never a silently truncated result. Zero means
	// DefaultMaxResponseBytes; negative is invalid.
	MaxResponseBytes int64
}

// Validate rejects option values that cannot mean anything.
func (o HTTPOptions) Validate() error {
	if o.MaxResponseBytes < 0 {
		return fmt.Errorf("client: negative MaxResponseBytes %d", o.MaxResponseBytes)
	}
	return nil
}

// HTTP is a SPARQL 1.1 protocol client for a remote endpoint.
type HTTP struct {
	name     string
	url      string
	hc       *http.Client
	maxBytes int64
}

// NewHTTP returns an endpoint client for the SPARQL endpoint at rawURL.
func NewHTTP(name, rawURL string) *HTTP {
	e, _ := NewHTTPWithOptions(name, rawURL, HTTPOptions{})
	return e
}

// NewHTTPWithClient returns an endpoint client using a caller-supplied
// http.Client (for timeouts, transports, or test doubles).
func NewHTTPWithClient(name, rawURL string, hc *http.Client) *HTTP {
	e, _ := NewHTTPWithOptions(name, rawURL, HTTPOptions{Client: hc})
	return e
}

// NewHTTPWithOptions returns an endpoint client configured by opts, or an
// error when opts fails Validate.
func NewHTTPWithOptions(name, rawURL string, opts HTTPOptions) (*HTTP, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	hc := opts.Client
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = erh.DefaultLimit
		hc = &http.Client{Timeout: 5 * time.Minute, Transport: tr}
	}
	maxBytes := opts.MaxResponseBytes
	if maxBytes == 0 {
		maxBytes = DefaultMaxResponseBytes
	}
	return &HTTP{name: name, url: rawURL, hc: hc, maxBytes: maxBytes}, nil
}

// Name implements Endpoint.
func (e *HTTP) Name() string { return e.name }

// URL returns the endpoint URL.
func (e *HTTP) URL() string { return e.url }

// Query implements Endpoint.
func (e *HTTP) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return Collect(ctx, e, query)
}

// QueryStream implements Endpoint with the SPARQL 1.1 Protocol's "query
// via POST directly" (§2.1.3): the query text is the request body, sent
// as application/sparql-query, so it is never URL-encoded. It asks for
// TSV with back-references, TSV or JSON results (JSON only for ASK) and
// decodes the one the response's Content-Type names; any other type, or
// either TSV form without length framing, is an EndpointError. It
// returns once the response head has been decoded; rows decode
// incrementally on Read. A body larger than the configured
// MaxResponseBytes fails the stream with an EndpointError wrapping
// ErrResponseTooLarge.
func (e *HTTP) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url, strings.NewReader(query))
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: %w", e.name, err)
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	accept := acceptResults
	if sparql.IsAsk(query) {
		accept = acceptBoolean
	}
	req.Header.Set("Accept", accept)
	resp, err := e.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: %w", e.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		msg := strings.TrimSpace(string(body))
		if len(msg) > 300 {
			msg = msg[:300]
		}
		return nil, fmt.Errorf("endpoint %s: HTTP %d: %s", e.name, resp.StatusCode, msg)
	}
	body := &boundedBody{
		rc:        resp.Body,
		remaining: e.maxBytes + 1, // the +1 distinguishes "exactly at cap" from "over"
		endpoint:  e.name,
		max:       e.maxBytes,
	}
	var dec sparql.RowReader
	ct := resp.Header.Get("Content-Type")
	switch f, ok := sparql.FormatOf(ct); {
	case ok && f == sparql.FormatJSON:
		dec, err = sparql.NewJSONDecoder(body)
	case ok && f == sparql.FormatTSV && framed(resp):
		dec, err = sparql.NewTSVDecoder(body)
	case ok && f == sparql.FormatTSVRefs && framed(resp):
		dec, err = sparql.NewTSVRefsDecoder(body)
	case ok && (f == sparql.FormatTSV || f == sparql.FormatTSVRefs):
		resp.Body.Close()
		return nil, &EndpointError{Endpoint: e.name,
			Err: errors.New("TSV response delimited by connection close: a cut at a line boundary would read as complete")}
	default:
		resp.Body.Close()
		return nil, &EndpointError{Endpoint: e.name, Err: fmt.Errorf("unsupported results content type %q", ct)}
	}
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: %w", e.name, err)
	}
	return dec, nil
}

// framed reports whether the transport detects a response body that ends
// early: a short Content-Length or chunked body, an HTTP/2 stream, or a
// gzip stream the transport decompressed all fail with
// io.ErrUnexpectedEOF instead of a clean end. Both TSV forms, which have
// no closing token of their own, are accepted only in such a response.
func framed(resp *http.Response) bool {
	return resp.ContentLength >= 0 || slices.Contains(resp.TransferEncoding, "chunked") ||
		resp.ProtoMajor >= 2 || resp.Uncompressed
}

// boundedBody is a response-body reader that fails — with a typed error —
// once more than max bytes have been consumed. Unlike io.LimitReader it
// never fakes a clean EOF at the cap, so an oversized response can never
// be mistaken for a complete one.
type boundedBody struct {
	rc        io.ReadCloser
	remaining int64
	endpoint  string
	max       int64
}

func (b *boundedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, &EndpointError{
			Endpoint: b.endpoint,
			Err:      fmt.Errorf("response body exceeds %d bytes: %w", b.max, ErrResponseTooLarge),
		}
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	return n, err
}

func (b *boundedBody) Close() error { return b.rc.Close() }
