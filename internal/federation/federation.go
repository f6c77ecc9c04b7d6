// Package federation models a set of independent SPARQL endpoints: the
// ordered, immutable endpoint registry every federated engine in this
// repository runs over.
package federation

import (
	"fmt"
	"sync/atomic"

	"lusail/internal/client"
)

// Federation is an ordered registry of endpoints.
type Federation struct {
	eps    []client.Endpoint
	byName map[string]client.Endpoint
	epoch  uint64
}

// fedEpochs hands each federation a process-unique epoch at construction.
// A federation is immutable after New, so its identity doubles as its
// planning epoch: two equal epochs imply the same endpoint set.
var fedEpochs atomic.Uint64

// New returns a federation over the given endpoints. Endpoint names must be
// unique.
func New(eps ...client.Endpoint) (*Federation, error) {
	f := &Federation{
		byName: make(map[string]client.Endpoint, len(eps)),
		epoch:  fedEpochs.Add(1),
	}
	for _, ep := range eps {
		if _, dup := f.byName[ep.Name()]; dup {
			return nil, fmt.Errorf("federation: duplicate endpoint name %q", ep.Name())
		}
		f.byName[ep.Name()] = ep
		f.eps = append(f.eps, ep)
	}
	return f, nil
}

// Epoch returns the federation's process-unique construction epoch. Plans
// and caches keyed on it are invalidated by swapping in a new federation.
func (f *Federation) Epoch() uint64 { return f.epoch }

// MustNew is New but panics on error; for tests and generators that
// construct names programmatically.
func MustNew(eps ...client.Endpoint) *Federation {
	f, err := New(eps...)
	if err != nil {
		panic(err)
	}
	return f
}

// Endpoints returns the endpoints in registration order.
func (f *Federation) Endpoints() []client.Endpoint { return f.eps }

// Names returns the endpoint names in registration order.
func (f *Federation) Names() []string {
	out := make([]string, len(f.eps))
	for i, ep := range f.eps {
		out[i] = ep.Name()
	}
	return out
}

// Get returns the endpoint with the given name, or nil.
func (f *Federation) Get(name string) client.Endpoint { return f.byName[name] }

// Size returns the number of endpoints.
func (f *Federation) Size() int { return len(f.eps) }
