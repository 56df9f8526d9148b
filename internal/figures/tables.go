package figures

// Tables I and II of the paper: the number of messages k needed to
// encode 1 MB of data as a function of field size q and message length
// m, and the measured time to decode (== encode) that megabyte.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"asymshare/internal/gf"
	"asymshare/internal/rlnc"
)

// TableFieldBits are the field widths of the tables' rows.
var TableFieldBits = []uint{gf.Bits4, gf.Bits8, gf.Bits16, gf.Bits32}

// TableMessageLens are the message lengths (symbols) of the columns.
var TableMessageLens = []int{1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18}

// TableDataBytes is the payload the tables encode: 1 MB.
const TableDataBytes = 1 << 20

// Table1 computes the k grid analytically: k = b / (m * p) for b bits
// of data.
func Table1() *Table {
	t := &Table{
		ID:       "table1",
		Title:    "messages k required to encode 1MB",
		RowLabel: "q",
		ColLabel: "m",
		Format:   "%.0f",
	}
	for _, bits := range TableFieldBits {
		t.Rows = append(t.Rows, fmt.Sprintf("GF(2^%d)", bits))
	}
	for _, m := range TableMessageLens {
		t.Cols = append(t.Cols, fmt.Sprintf("2^%d", log2(m)))
	}
	t.Cells = make([][]float64, len(t.Rows))
	for i, bits := range TableFieldBits {
		t.Cells[i] = make([]float64, len(TableMessageLens))
		for j, m := range TableMessageLens {
			params, err := rlnc.ParamsForSize(gf.MustNew(bits), TableDataBytes, m)
			if err != nil {
				panic(err) // static grid, cannot fail
			}
			t.Cells[i][j] = float64(params.K)
		}
	}
	return t
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// Table2Options scales the measurement.
type Table2Options struct {
	// DataBytes is the generation size; zero means the paper's 1 MB.
	DataBytes int

	// Seed drives the random payload and message-ids.
	Seed int64
}

// table2Repeat is the number of decodes timed per Table II cell, of
// which the fastest is reported, so that a preemption during one decode
// does not decide a cell.
const table2Repeat = 3

// Table2 measures decode time across the (q, m) grid: for each cell it
// encodes DataBytes of random data into k messages and times the
// incremental Gaussian decode, exactly the computation a user performs
// at download time. Encoding and decoding are the same computation up
// to the matrix inverse (Sec. V-B), so one number characterizes both.
func Table2(opts Table2Options) (*Table, error) {
	dataBytes := opts.DataBytes
	if dataBytes <= 0 {
		dataBytes = TableDataBytes
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	data := make([]byte, dataBytes)
	rng.Read(data)
	secret := make([]byte, rlnc.SecretLen)
	rng.Read(secret)

	t := &Table{
		ID:       "table2",
		Title:    fmt.Sprintf("decode time (s) for %d bytes, best of %d", dataBytes, table2Repeat),
		RowLabel: "q",
		ColLabel: "m",
		Format:   "%.4f",
	}
	for _, bits := range TableFieldBits {
		t.Rows = append(t.Rows, fmt.Sprintf("GF(2^%d)", bits))
	}
	for _, m := range TableMessageLens {
		t.Cols = append(t.Cols, fmt.Sprintf("2^%d", log2(m)))
	}
	t.Cells = make([][]float64, len(t.Rows))
	for i, bits := range TableFieldBits {
		t.Cells[i] = make([]float64, len(TableMessageLens))
		for j, m := range TableMessageLens {
			for r := 0; r < table2Repeat; r++ {
				secs, err := MeasureDecode(gf.MustNew(bits), m, data, secret)
				if err != nil {
					return nil, fmt.Errorf("cell GF(2^%d) m=%d: %w", bits, m, err)
				}
				if r == 0 || secs < t.Cells[i][j] {
					t.Cells[i][j] = secs
				}
			}
		}
	}
	return t, nil
}

// MeasureDecode encodes data into one generation with the given field
// and message length, then times a full decode from k fresh messages.
// It returns the decode wall time in seconds.
func MeasureDecode(field gf.Field, m int, data, secret []byte) (float64, error) {
	params, err := rlnc.ParamsForSize(field, len(data), m)
	if err != nil {
		return 0, err
	}
	enc, err := rlnc.NewEncoder(params, 1, secret, data)
	if err != nil {
		return 0, err
	}
	msgs := make([]*rlnc.Message, 0, 2*params.K)
	for id := uint64(0); id < uint64(2*params.K); id++ {
		msgs = append(msgs, enc.Message(id))
	}
	dec, err := rlnc.NewDecoder(params, 1, secret, nil)
	if err != nil {
		return 0, err
	}
	// Collect the encoder's garbage first, so a collection it triggers
	// is not charged to the decode.
	runtime.GC()
	start := time.Now()
	for _, msg := range msgs {
		if dec.Done() {
			break
		}
		if _, err := dec.Add(msg); err != nil {
			return 0, err
		}
	}
	if _, err := dec.Decode(); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}
