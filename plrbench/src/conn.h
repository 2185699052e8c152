#ifndef PLRBENCH_CONN_H_
#define PLRBENCH_CONN_H_

/**
 * @file
 * The load generator's side of an AF_UNIX socketpair whose other end is
 * served by plr::server::serve_connection on a thread of its own.
 *
 * The client end is non-blocking: one generator thread multiplexes every
 * connection with poll(), queueing outbound frames and collecting
 * complete inbound frames, so a slow server can never stall the
 * schedule of another connection, and large frames cannot deadlock
 * against a server that is itself blocked writing a response.
 */

#include <cstdint>
#include <deque>
#include <span>
#include <thread>
#include <vector>

#include "server/server.h"

namespace plrbench {

class Connection {
  public:
    /** Open the pair and start serve_connection on the server end. */
    explicit Connection(plr::server::Server& server);
    /** Half-close, drain until the server end closes, and join. */
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd() const { return fd_; }

    /** Queue @p frame (length-prefixed on the wire) tagged @p tag. */
    void queue(std::span<const std::uint8_t> frame, std::uint64_t tag);

    /** True while queued bytes have not all reached the socket. */
    bool want_write() const { return sent_ < out_.size(); }

    /**
     * Write as much as the socket takes. Tags of frames whose last byte
     * went out are appended to @p written.
     */
    void flush(std::vector<std::uint64_t>& written);

    /**
     * Read everything available and append each complete response frame
     * to @p frames. Returns false once the server end has closed.
     */
    bool receive(std::vector<std::vector<std::uint8_t>>& frames);

  private:
    int fd_ = -1;
    int server_fd_ = -1;
    std::thread thread_;
    std::vector<std::uint8_t> out_;
    std::size_t sent_ = 0;
    /** (end offset in out_, tag) of each queued frame, oldest first. */
    std::deque<std::pair<std::size_t, std::uint64_t>> pending_;
    std::vector<std::uint8_t> in_;
};

/**
 * Wait until a connection is readable (or writable, for those with
 * queued output) or @p timeout_ns passes. Returns the readable ones.
 */
std::vector<Connection*> wait_ready(std::span<Connection* const> conns,
                                    std::int64_t timeout_ns);

}  // namespace plrbench

#endif  // PLRBENCH_CONN_H_
