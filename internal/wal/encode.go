package wal

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// appendRecord appends rec's JSON encoding to dst. The output is
// byte-identical to json.Marshal(rec) — same field order, the same
// omitempty rules, the same float text and encoding/json's HTML-safe
// string escaping — so logs written before and after this encoder
// replay alike, and FuzzRecordEncoding holds the two to equal bytes.
// It allocates only when dst must grow. Like json.Marshal it refuses
// NaN and ±Inf.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	dst = append(dst, `{"type":`...)
	dst = appendString(dst, rec.Type)
	if rec.Host != "" {
		dst = append(dst, `,"host":`...)
		dst = appendString(dst, rec.Host)
	}
	if rec.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = appendString(dst, rec.ID)
	}
	var err error
	if rec.Expiry != 0 {
		dst = append(dst, `,"expiry":`...)
		if dst, err = appendFloat(dst, rec.Expiry); err != nil {
			return dst, err
		}
	}
	if rec.Outcome != "" {
		dst = append(dst, `,"outcome":`...)
		dst = appendString(dst, rec.Outcome)
	}
	if len(rec.Parts) > 0 {
		dst = append(dst, `,"parts":[`...)
		for i := range rec.Parts {
			p := &rec.Parts[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"resource":`...)
			dst = appendString(dst, p.Resource)
			dst = append(dst, `,"id":`...)
			dst = strconv.AppendUint(dst, p.ID, 10)
			dst = append(dst, `,"amount":`...)
			if dst, err = appendFloat(dst, p.Amount); err != nil {
				return dst, err
			}
			if len(p.Links) > 0 {
				dst = append(dst, `,"links":[`...)
				for j, l := range p.Links {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = append(dst, `{"resource":`...)
					dst = appendString(dst, l.Resource)
					dst = append(dst, `,"id":`...)
					dst = strconv.AppendUint(dst, l.ID, 10)
					dst = append(dst, '}')
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendFloat formats f as encoding/json does a float64: shortest
// round-trip digits, in 'f' form except below 1e-6 and from 1e21 up in
// magnitude, where the 'e' form's exponent loses its leading zero.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("encode: unsupported value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's
// HTML-safe escaping: quote, backslash and control characters escaped
// (\b \f \n \r \t by name, the rest as \u00XX), <, > and & as
// \u003c, \u003e and \u0026, invalid UTF-8 replaced by \ufffd, and U+2028
// and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
