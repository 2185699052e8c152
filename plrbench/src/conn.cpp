#include "conn.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "server/transport.h"

namespace plrbench {

Connection::Connection(plr::server::Server& server)
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0)
        throw std::runtime_error(std::string("socketpair: ") + std::strerror(errno));
    fd_ = fds[0];
    server_fd_ = fds[1];
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    const int server_fd = server_fd_;
    thread_ = std::thread([&server, server_fd] {
        try {
            plr::server::serve_connection(server, server_fd);
        } catch (...) {
            // A transport failure ends the connection; the generator sees
            // EOF and counts the unanswered requests as failed.
        }
        ::shutdown(server_fd, SHUT_RDWR);
    });
}

Connection::~Connection()
{
    ::shutdown(fd_, SHUT_WR);
    // Drain responses until the server end shuts down, so a server thread
    // blocked writing a response can finish and see our EOF.
    std::uint8_t sink[65536];
    for (;;) {
        pollfd p{fd_, POLLIN, 0};
        ::poll(&p, 1, 1000);
        const ssize_t got = ::read(fd_, sink, sizeof(sink));
        if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR))
            break;
    }
    thread_.join();
    ::close(server_fd_);
    ::close(fd_);
}

void
Connection::queue(std::span<const std::uint8_t> frame, std::uint64_t tag)
{
    if (sent_ == out_.size()) {
        out_.clear();
        sent_ = 0;
    } else if (sent_ > (1u << 20)) {
        out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(sent_));
        for (auto& entry : pending_)
            entry.first -= sent_;
        sent_ = 0;
    }
    const auto len = static_cast<std::uint32_t>(frame.size());
    const std::uint8_t prefix[4] = {
        static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
        static_cast<std::uint8_t>(len >> 16), static_cast<std::uint8_t>(len >> 24)};
    out_.insert(out_.end(), prefix, prefix + 4);
    out_.insert(out_.end(), frame.begin(), frame.end());
    pending_.emplace_back(out_.size(), tag);
}

void
Connection::flush(std::vector<std::uint64_t>& written)
{
    while (sent_ < out_.size()) {
        const ssize_t put = ::send(fd_, out_.data() + sent_, out_.size() - sent_,
                                   MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            throw std::runtime_error(std::string("send: ") + std::strerror(errno));
        }
        sent_ += static_cast<std::size_t>(put);
    }
    while (!pending_.empty() && pending_.front().first <= sent_) {
        written.push_back(pending_.front().second);
        pending_.pop_front();
    }
}

bool
Connection::receive(std::vector<std::vector<std::uint8_t>>& frames)
{
    bool open = true;
    std::uint8_t buf[1 << 16];
    for (;;) {
        const ssize_t got = ::read(fd_, buf, sizeof(buf));
        if (got > 0) {
            in_.insert(in_.end(), buf, buf + got);
            continue;
        }
        if (got == 0) {
            open = false;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        open = false;
        break;
    }
    std::size_t pos = 0;
    while (in_.size() - pos >= 4) {
        const std::uint32_t len = static_cast<std::uint32_t>(in_[pos]) |
                                  (static_cast<std::uint32_t>(in_[pos + 1]) << 8) |
                                  (static_cast<std::uint32_t>(in_[pos + 2]) << 16) |
                                  (static_cast<std::uint32_t>(in_[pos + 3]) << 24);
        if (in_.size() - pos - 4 < len)
            break;
        const auto* body = in_.data() + pos + 4;
        frames.emplace_back(body, body + len);
        pos += 4 + len;
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(pos));
    return open;
}

std::vector<Connection*>
wait_ready(std::span<Connection* const> conns, std::int64_t timeout_ns)
{
    std::vector<pollfd> fds;
    fds.reserve(conns.size());
    for (Connection* c : conns) {
        fds.push_back(pollfd{c->fd(),
                             static_cast<short>(POLLIN | (c->want_write() ? POLLOUT : 0)),
                             0});
    }
    const std::int64_t ns = timeout_ns < 0 ? 0 : timeout_ns;
    const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
    std::vector<Connection*> ready;
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
        return ready;
    for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
            ready.push_back(conns[i]);
    }
    return ready;
}

}  // namespace plrbench
