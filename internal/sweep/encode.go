package sweep

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
)

// This file holds the two streaming wire encodings of a sweep — NDJSON
// (one JSON object per line, the /v1/sweep default) and CSV — shared by
// the server endpoint and the cmd/sweep CLI so both emit byte-identical
// rows for the same grid.
//
// Streaming callers should hold a LineEncoder for the whole grid: it
// reuses one line buffer across points, so encoding adds no per-point
// garbage on top of the sweep's evaluation path. The package-level
// WriteNDJSON / CSVRecord helpers remain for one-shot callers and render
// the exact same bytes.

// LineEncoder streams points to one writer, recycling its line buffer
// between calls. Not safe for concurrent use; sweep emit callbacks are
// already serialized by the Runner.
type LineEncoder struct {
	w    io.Writer
	json *json.Encoder // lazily created: CSV-only streams never need it
	buf  []byte
}

// NewLineEncoder returns an encoder bound to w.
func NewLineEncoder(w io.Writer) *LineEncoder {
	return &LineEncoder{w: w}
}

// NDJSON writes one point as a single JSON line.
func (e *LineEncoder) NDJSON(p Point) error {
	return e.JSONLine(p)
}

// JSONLine writes any value as a single NDJSON line. The underlying
// json.Encoder recycles its encode buffer, unlike a Marshal per line.
func (e *LineEncoder) JSONLine(v any) error {
	if e.json == nil {
		e.json = json.NewEncoder(e.w)
	}
	return e.json.Encode(v)
}

// CSVHeader writes the column row matching CSVRecord.
func (e *LineEncoder) CSVHeader() error {
	_, err := io.WriteString(e.w, CSVHeader())
	return err
}

// CSVRecord writes one point as a CSV row into the recycled buffer.
func (e *LineEncoder) CSVRecord(p Point) error {
	e.buf = appendCSVRecord(e.buf[:0], p)
	_, err := e.w.Write(e.buf)
	return err
}

// WriteNDJSON writes one point as a single JSON line.
func WriteNDJSON(w io.Writer, p Point) error {
	return WriteJSONLine(w, p)
}

// WriteJSONLine writes any value as a single NDJSON line — shared with
// cmd/plan, which streams plan records the same way sweeps stream points.
func WriteJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// CSVHeader is the column row matching CSVRecord, newline-terminated.
func CSVHeader() string {
	return "seq,domain,accelerator,param_target,subbatch,costmodel,params,flops_per_step,bytes_per_step,intensity,footprint_bytes,step_seconds,utilization,compute_bound,fits_memory,error\n"
}

// CSVRecord renders one point as a CSV row, newline-terminated. The
// costmodel column mirrors the NDJSON label: filled when the spec named a
// backend explicitly, empty for default-backend grids, so a saved perop
// grid stays distinguishable from a graph one in either format. Failed
// points leave the numeric columns empty and fill the error column.
func CSVRecord(p Point) string {
	return string(appendCSVRecord(nil, p))
}

// appendCSVRecord is the single CSV renderer behind both CSVRecord and
// LineEncoder.CSVRecord. Floats use 'g'/6, matching the %.6g the format
// was pinned with.
func appendCSVRecord(b []byte, p Point) []byte {
	b = strconv.AppendInt(b, int64(p.Seq), 10)
	b = append(b, ',')
	b = append(b, p.Domain...)
	b = append(b, ',')
	b = appendCSVEscaped(b, p.Accelerator)
	b = append(b, ',')
	b = strconv.AppendFloat(b, p.ParamTarget, 'g', 6, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, p.Subbatch, 'g', 6, 64)
	b = append(b, ',')
	b = append(b, p.CostModel...)
	if p.Requirements == nil {
		b = append(b, ",,,,,,,,,,"...)
		b = appendCSVEscaped(b, p.Error)
		return append(b, '\n')
	}
	for _, f := range [...]float64{
		p.Params, p.FLOPsPerStep, p.BytesPerStep, p.Intensity,
		p.FootprintBytes, p.StepSeconds, p.Utilization,
	} {
		b = append(b, ',')
		b = strconv.AppendFloat(b, f, 'g', 6, 64)
	}
	b = append(b, ',')
	b = strconv.AppendBool(b, p.ComputeBound)
	b = append(b, ',')
	b = strconv.AppendBool(b, p.FitsMemory)
	return append(b, ",\n"...)
}

// appendCSVEscaped appends s, quoted when it contains CSV
// metacharacters — custom accelerator names and error messages are the
// only free-form columns.
func appendCSVEscaped(b []byte, s string) []byte {
	if !strings.ContainsAny(s, ",\"\n") {
		return append(b, s...)
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"', '"')
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, '"')
}
