package serve

import "net"

// AppendRequest is the codec's request encoder, whose bytes the
// conformance transcript logs.
var AppendRequest = appendRequest

// HandleConn runs the connection loop on c, so that tests can drive it
// over net.Pipe.
func (s *Server) HandleConn(c net.Conn) { s.handleConn(c) }
