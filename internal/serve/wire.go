package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"

	lmfao "repro"
	"repro/internal/data"
)

// This file defines the JSON wire format of every endpoint and the decoding
// of update payloads into the engine's columnar Delta representation.

// errorBody is the uniform error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// lookupRequest asks for one group's aggregate row of one batch query.
type lookupRequest struct {
	Query int     `json:"query"`
	Key   []int64 `json:"key"`
}

// lookupResponse returns the row (exactly the query's aggregates, query
// order) and whether the group exists in the snapshot.
type lookupResponse struct {
	Query  int       `json:"query"`
	Key    []int64   `json:"key"`
	OK     bool      `json:"ok"`
	Values []float64 `json:"values,omitempty"`
	Epochs []uint64  `json:"epochs"`
}

// resultResponse dumps one query's materialized view.
type resultResponse struct {
	Query   int         `json:"query"`
	Name    string      `json:"name,omitempty"`
	GroupBy []string    `json:"groupBy"`
	Aggs    int         `json:"aggs"`
	Rows    int         `json:"rows"`
	Data    []resultRow `json:"data"`
	Epochs  []uint64    `json:"epochs"`
	Fresh   bool        `json:"fresh"`
}

// resultRow is one group of a materialized view.
type resultRow struct {
	Key    []int64   `json:"key"`
	Values []float64 `json:"values"`
}

// requeryRequest carries ad-hoc queries in the compact wire syntax
// understood by the query parser: `name(attr, ...; SUM term, ...)`.
type requeryRequest struct {
	Queries []string `json:"queries"`
}

// requeryResponse returns one materialized view per ad-hoc query.
type requeryResponse struct {
	Results []resultResponse `json:"results"`
}

// updateWire is one relation's insert/delete batch, row-major: every row
// lists the relation's attribute values in schema order (integers for
// key/categorical attributes, numbers for numeric ones).
type updateWire struct {
	Relation string      `json:"relation"`
	Inserts  [][]float64 `json:"inserts,omitempty"`
	Deletes  [][]float64 `json:"deletes,omitempty"`
}

// applyRequest carries one maintenance round.
type applyRequest struct {
	Updates []updateWire `json:"updates"`
}

// applyResponse reports a committed synchronous round.
type applyResponse struct {
	Applied     int      `json:"applied"`
	Incremental bool     `json:"incremental"`
	Epochs      []uint64 `json:"epochs"`
}

// applyAsyncResponse acknowledges an accepted asynchronous round.
type applyAsyncResponse struct {
	Accepted bool `json:"accepted"`
	Pending  int  `json:"pending"`
}

// metaResponse describes the served database and batch.
type metaResponse struct {
	Relations []relationMeta `json:"relations"`
	Queries   []queryMeta    `json:"queries"`
	Apps      []string       `json:"apps"`
	Shards    int            `json:"shards"`
}

// relationMeta describes one base relation's schema.
type relationMeta struct {
	Name  string     `json:"name"`
	Rows  int        `json:"rows"`
	Attrs []attrMeta `json:"attrs"`
}

// attrMeta describes one attribute.
type attrMeta struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// queryMeta describes one batch query.
type queryMeta struct {
	Index   int      `json:"index"`
	Name    string   `json:"name"`
	GroupBy []string `json:"groupBy"`
	Aggs    int      `json:"aggs"`
}

// kindName renders an attribute kind for the wire.
func kindName(k data.Kind) string {
	switch k {
	case data.Key:
		return "key"
	case data.Categorical:
		return "categorical"
	case data.Numeric:
		return "numeric"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// decodeUpdates converts row-major wire updates into schema-order columnar
// Deltas, validating relation names and row arity against db.
func decodeUpdates(db *lmfao.Database, ups []updateWire) ([]lmfao.Update, error) {
	out := make([]lmfao.Update, 0, len(ups))
	for _, u := range ups {
		rel := db.Relation(u.Relation)
		if rel == nil {
			return nil, fmt.Errorf("unknown relation %q", u.Relation)
		}
		ins, err := rowsToColumns(db, rel, u.Inserts)
		if err != nil {
			return nil, fmt.Errorf("relation %q inserts: %w", u.Relation, err)
		}
		del, err := rowsToColumns(db, rel, u.Deletes)
		if err != nil {
			return nil, fmt.Errorf("relation %q deletes: %w", u.Relation, err)
		}
		out = append(out, lmfao.Update{Relation: u.Relation, Inserts: ins, Deletes: del})
	}
	return out, nil
}

// rowsToColumns transposes row-major values into one column per relation
// attribute, typed by the attribute kind.
func rowsToColumns(db *lmfao.Database, rel *data.Relation, rows [][]float64) ([]data.Column, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	for i, row := range rows {
		if len(row) != len(rel.Attrs) {
			return nil, fmt.Errorf("row %d has %d values, schema has %d attributes", i, len(row), len(rel.Attrs))
		}
	}
	cols := make([]data.Column, len(rel.Attrs))
	for c, id := range rel.Attrs {
		vals := make([]float64, len(rows))
		for i, row := range rows {
			vals[i] = row[c]
		}
		col, err := wireColumn(db, id, vals)
		if err != nil {
			return nil, err
		}
		cols[c] = col
	}
	return cols, nil
}

// wireColumn types one attribute's wire values: a numeric attribute keeps
// them, and a key or categorical one takes each as an int64, rejecting a
// value that is not an integer or lies outside [-2^63, 2^63) rather than
// truncating it.
func wireColumn(db *lmfao.Database, id lmfao.AttrID, vals []float64) (data.Column, error) {
	a := db.Attribute(id)
	if a.Kind == data.Numeric {
		return data.NewFloatColumn(vals), nil
	}
	ints := make([]int64, len(vals))
	for i, x := range vals {
		if x != math.Trunc(x) || x < -(1<<63) || x >= 1<<63 {
			return data.Column{}, fmt.Errorf("attribute %q: %v is not an int64", a.Name, x)
		}
		ints[i] = int64(x)
	}
	return data.NewIntColumn(ints), nil
}

// viewToResponse renders one materialized view for the wire, capped at
// maxRows groups (0 = no cap) so a huge group-by cannot produce an unbounded
// response body.
func viewToResponse(db *lmfao.Database, idx int, name string, v *lmfao.Result, aggs int, epochs []uint64, fresh bool, maxRows int) resultResponse {
	resp := resultResponse{
		Query:   idx,
		Name:    name,
		GroupBy: db.AttrNames(v.GroupBy),
		Aggs:    aggs,
		Rows:    v.NumRows(),
		Epochs:  epochs,
		Fresh:   fresh,
	}
	n := v.NumRows()
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	resp.Data = make([]resultRow, n)
	for i := 0; i < n; i++ {
		key := make([]int64, len(v.GroupBy))
		for c := range key {
			key[c] = v.KeyAt(i, c)
		}
		vals := make([]float64, aggs)
		for c := 0; c < aggs; c++ {
			vals[c] = v.Val(i, c)
		}
		resp.Data[i] = resultRow{Key: key, Values: vals}
	}
	return resp
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// maxBodyBytes bounds every request body, so one request cannot hold the
// server's memory; a bulk apply of tens of thousands of rows fits.
const maxBodyBytes = 8 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes. On
// failure it writes 413 for an oversized body, 408 for a body the read
// deadline cut off, and 400 for any other error, naming the body what, and
// returns false. A decode error is echoed; a transport error is not, since
// its text carries the connection's addresses.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	body := &recordingReader{r: http.MaxBytesReader(w, r.Body, maxBodyBytes)}
	err := json.NewDecoder(body).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, maxBodyBytes)
	case errors.Is(err, os.ErrDeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, "%s body not received in time", what)
	case body.err != nil:
		writeError(w, http.StatusBadRequest, "%s body could not be read", what)
	default:
		writeError(w, http.StatusBadRequest, "bad %s body: %v", what, err)
	}
	return false
}

// recordingReader passes reads through and keeps the last error other than
// io.EOF: the transport's, as opposed to one the JSON decoder raises.
type recordingReader struct {
	r   io.Reader
	err error
}

func (b *recordingReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF {
		b.err = err
	}
	return n, err
}

// writeError writes the uniform error envelope. A 429 carries
// Retry-After: the refused work may be retried in a second.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// parseKeyCSV parses a comma-separated int64 list ("" = empty key).
func parseKeyCSV(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("key element %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// epochsOf extracts the per-shard publication epochs of a session
// snapshot (nil for any other Queryable).
func epochsOf(q lmfao.Queryable) []uint64 {
	if sn, ok := q.(*lmfao.Snapshot); ok {
		return sn.Epochs()
	}
	return nil
}

// epochHeader renders epochs for the X-Lmfao-Epoch header.
func epochHeader(epochs []uint64) string {
	parts := make([]string, len(epochs))
	for i, e := range epochs {
		parts[i] = strconv.FormatUint(e, 10)
	}
	return strings.Join(parts, ",")
}
