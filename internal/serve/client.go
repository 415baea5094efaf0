package serve

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
)

// Client is a blocking request/response client for the serve wire
// protocol. It is safe for concurrent use: requests are serialized on
// one connection and responses matched by the frame order the protocol
// guarantees. The client assigns V and ID on every request.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	id   uint64
	err  error // sticky transport error; the connection is dead once set
}

// Dial connects to a serve daemon. An address of the form "unix:/path"
// dials a unix domain socket, anything else TCP.
func Dial(addr string) (*Client, error) {
	var conn net.Conn
	var err error
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		conn, err = net.Dial("unix", path)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// Do sends one request and waits for its response. It stamps req.V and
// req.ID. A transport error is sticky: every later Do fails immediately
// with it (the framing cannot be trusted after a partial exchange).
func (c *Client) Do(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	c.id++
	req.V = ProtoVersion
	req.ID = c.id
	if err := WriteFrame(c.bw, req); err != nil {
		c.err = err
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		c.err = err
		return nil, err
	}
	resp := &Response{}
	if err := ReadFrame(c.br, resp); err != nil {
		c.err = err
		return nil, err
	}
	if resp.ID != req.ID {
		c.err = fmt.Errorf("serve: response id %d does not match request id %d", resp.ID, req.ID)
		return nil, c.err
	}
	return resp, nil
}

// Err returns the sticky transport error, nil while the connection is
// healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }
