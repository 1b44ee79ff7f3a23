package main

// A deliberately thin HTTP/1.1 client: one keep-alive TCP connection, the
// request written by hand, the reply parsed by net/http's own reader, and the
// JSON body walked without reflection. The load generator shares two cores
// with the server under test, so every microsecond spent here is noise in
// the server's numbers.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

const requestTimeout = 10 * time.Second

type client struct {
	conn   net.Conn
	br     *bufio.Reader
	host   string
	apiKey string
	req    []byte
	body   bytes.Buffer
	hits   []hit
}

func dial(addr, apiKey string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), host: addr, apiKey: apiKey}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request and reads the whole reply. The returned body aliases
// the client's buffer and is valid until the next call.
func (c *client) do(method, path string, payload []byte) (status int, body []byte, err error) {
	b := append(c.req[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	if c.apiKey != "" {
		b = append(b, "\r\nX-API-Key: "...)
		b = append(b, c.apiKey...)
	}
	if payload != nil {
		b = append(b, "\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(payload)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, payload...)
	c.req = b
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(b); err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// query sends one pool tuple and checks the answer against the oracle.
func (c *client) query(path string, t *tuple, tr *truth, approx bool) bool {
	status, body, err := c.do("GET", path, nil)
	if err != nil || status != http.StatusOK {
		return false
	}
	count, hits, err := parseReply(body, c.hits[:0])
	c.hits = hits
	if err == nil && tr.check(t, approx, count, hits) {
		return true
	}
	reportMismatch(path, tr, count, hits, err)
	return false
}

// mismatches bounds how many wrong answers are described on standard error.
var mismatches atomic.Int32

func reportMismatch(path string, tr *truth, count int, hits []hit, err error) {
	if mismatches.Add(1) > 5 {
		return
	}
	fmt.Fprintf(os.Stderr, "benchmark: wrong answer to %s: count %d, %d hits, parse error %v; oracle: %d above tau, %d above tau-eps, %d above taumin\n",
		path, count, len(hits), err, len(tr.at), len(tr.loose), len(tr.ranked))
}

var errReply = errors.New("malformed reply")

// parseReply extracts "count" and the "hits" array from a query, top-k or
// count reply, appending the hits to buf. It accepts any key order and any
// whitespace, and skips members it does not know.
func parseReply(b []byte, buf []hit) (count int, hits []hit, err error) {
	s := scanner{b: b}
	hits = buf
	count = -1
	err = s.object(func(key []byte) error {
		switch string(key) {
		case "count":
			n, err := s.number()
			count = int(n)
			return err
		case "hits":
			return s.array(func() error {
				var h hit
				err := s.object(func(key []byte) error {
					n, err := s.numberOrSkip()
					switch string(key) {
					case "doc":
						h.doc = int(n)
					case "pos":
						h.pos = int(n)
					case "prob":
						h.prob = n
					}
					return err
				})
				hits = append(hits, h)
				return err
			})
		}
		return s.skip()
	})
	if err == nil && count < 0 {
		err = errReply
	}
	return count, hits, err
}

// scanner is a minimal pull parser over one JSON value.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string and returns its raw (still escaped) contents.
func (s *scanner) str() ([]byte, error) {
	if !s.eat('"') {
		return nil, errReply
	}
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			s.i += 2
		case '"':
			s.i++
			return s.b[start : s.i-1], nil
		default:
			s.i++
		}
	}
	return nil, errReply
}

func (s *scanner) object(member func(key []byte) error) error {
	if !s.eat('{') {
		return errReply
	}
	if s.eat('}') {
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if !s.eat(':') {
			return errReply
		}
		if err := member(key); err != nil {
			return err
		}
		if s.eat('}') {
			return nil
		}
		if !s.eat(',') {
			return errReply
		}
	}
}

func (s *scanner) array(element func() error) error {
	s.ws()
	if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += 4
		return nil
	}
	if !s.eat('[') {
		return errReply
	}
	if s.eat(']') {
		return nil
	}
	for {
		if err := element(); err != nil {
			return err
		}
		if s.eat(']') {
			return nil
		}
		if !s.eat(',') {
			return errReply
		}
	}
}

func (s *scanner) number() (float64, error) {
	s.ws()
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			s.i++
			continue
		}
		break
	}
	if start == s.i {
		return 0, errReply
	}
	tok := s.b[start:s.i]
	// Integers — document numbers, positions, counts — dominate replies.
	n, ok := 0, len(tok) <= 15
	for _, c := range tok {
		if c < '0' || c > '9' {
			ok = false
			break
		}
		n = n*10 + int(c-'0')
	}
	if ok {
		return float64(n), nil
	}
	return strconv.ParseFloat(string(tok), 64)
}

// numberOrSkip reads a number, or skips a value of any other type.
func (s *scanner) numberOrSkip() (float64, error) {
	s.ws()
	if s.i < len(s.b) && (s.b[s.i] == '-' || (s.b[s.i] >= '0' && s.b[s.i] <= '9')) {
		return s.number()
	}
	return 0, s.skip()
}

func (s *scanner) skip() error {
	s.ws()
	if s.i >= len(s.b) {
		return errReply
	}
	switch c := s.b[s.i]; {
	case c == '"':
		_, err := s.str()
		return err
	case c == '{':
		return s.object(func([]byte) error { return s.skip() })
	case c == '[':
		return s.array(s.skip)
	case c == 't' || c == 'f' || c == 'n':
		for s.i < len(s.b) && s.b[s.i] >= 'a' && s.b[s.i] <= 'z' {
			s.i++
		}
		return nil
	}
	_, err := s.number()
	return err
}
