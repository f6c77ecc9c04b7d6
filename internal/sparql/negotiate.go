package sparql

import (
	"strconv"
	"strings"
)

// Format is a SPARQL 1.1 query results serialization.
type Format int

// The results formats this package writes. JSON, the zero value, is the
// default and the only one every reader here streams besides the two TSV
// forms.
const (
	FormatJSON Format = iota
	FormatXML
	FormatCSV
	FormatTSV
	// FormatTSVRefs is TSV with per-response back-references, an
	// extension only this module's endpoints and lusaild offer: a cell
	// that repeats one written earlier in the response may be sent as #k,
	// the index of that earlier text cell (DESIGN.md §14). It is chosen
	// only when a client names it.
	FormatTSVRefs
)

// ContentType is the media type (with charset where the format needs one)
// a response in f carries.
func (f Format) ContentType() string {
	switch f {
	case FormatXML:
		return "application/sparql-results+xml; charset=utf-8"
	case FormatCSV:
		return "text/csv; charset=utf-8"
	case FormatTSV:
		return "text/tab-separated-values; charset=utf-8"
	case FormatTSVRefs:
		return "text/x-lusail-tsv-refs; charset=utf-8"
	}
	return "application/sparql-results+json"
}

// FormatOf maps a media type, parameters allowed, to its results format.
func FormatOf(mediaType string) (Format, bool) {
	mt, _, _ := strings.Cut(mediaType, ";")
	switch strings.ToLower(strings.TrimSpace(mt)) {
	case "application/sparql-results+json", "application/json":
		return FormatJSON, true
	case "application/sparql-results+xml", "application/xml":
		return FormatXML, true
	case "text/csv":
		return FormatCSV, true
	case "text/tab-separated-values":
		return FormatTSV, true
	case "text/x-lusail-tsv-refs":
		return FormatTSVRefs, true
	}
	return FormatJSON, false
}

// negotiationOrder breaks ties between equally weighted formats.
var negotiationOrder = [...]Format{FormatCSV, FormatXML, FormatTSVRefs, FormatTSV, FormatJSON}

// Negotiate picks the results format for an HTTP Accept header: the
// format with the highest q-value, ties going to CSV, XML, TSV with
// back-references, TSV, then JSON. A wildcard range (*/* or application/*)
// weighs JSON only, so TSV with back-references, which no standard client
// reads, is chosen only when named; a missing header, or one no format
// satisfies with q > 0, gets JSON. An ASK result is always JSON: the TSV
// and CSV formats have no boolean form.
func Negotiate(accept string, ask bool) Format {
	if ask {
		return FormatJSON
	}
	var q [len(negotiationOrder)]float64
	for rest := accept; rest != ""; {
		var item string
		item, rest, _ = strings.Cut(rest, ",")
		mt, params, _ := strings.Cut(item, ";")
		weight := qValue(params)
		switch mt = strings.ToLower(strings.TrimSpace(mt)); mt {
		case "*/*", "application/*":
			q[FormatJSON] = max(q[FormatJSON], weight)
		default:
			if f, ok := FormatOf(mt); ok {
				q[f] = max(q[f], weight)
			}
		}
	}
	best, bestQ := FormatJSON, 0.0
	for _, f := range negotiationOrder {
		if q[f] > bestQ {
			best, bestQ = f, q[f]
		}
	}
	return best
}

// qValue reads the q parameter of one Accept range: 1 when absent, 0 when
// malformed.
func qValue(params string) float64 {
	for rest := params; rest != ""; {
		var p string
		p, rest, _ = strings.Cut(rest, ";")
		name, value, _ := strings.Cut(p, "=")
		if strings.EqualFold(strings.TrimSpace(name), "q") {
			v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
			if err != nil || v < 0 || v > 1 {
				return 0
			}
			return v
		}
	}
	return 1
}
