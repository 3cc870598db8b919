/**
 * @file
 * Blocking client implementation. receive() pulls from the decoder
 * first, so pipelined frames already buffered never touch the
 * socket again.
 */

#include "net/client.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace srbenes
{
namespace net
{

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Client::connect(const std::string &host, std::uint16_t port)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        close();
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        close();
        return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    decoder_ = Decoder();
    return true;
}

bool
Client::send(const Message &m)
{
    if (fd_ < 0)
        return false;
    send_buf_.clear();
    encode(m, send_buf_);
    std::size_t off = 0;
    while (off < send_buf_.size()) {
        const ssize_t sent =
            ::send(fd_, send_buf_.data() + off, send_buf_.size() - off,
                   MSG_NOSIGNAL);
        if (sent > 0) {
            off += static_cast<std::size_t>(sent);
            continue;
        }
        if (sent < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

bool
Client::receive(Message &out, std::string *error)
{
    bool timed_out = false;
    return receiveFor(out, -1, timed_out, error);
}

bool
Client::receiveFor(Message &out, int timeout_ms, bool &timed_out,
                   std::string *error)
{
    timed_out = false;
    if (fd_ < 0) {
        if (error)
            *error = "not connected";
        return false;
    }
    for (;;) {
        switch (decoder_.next(out, error)) {
          case DecodeStatus::Ok:
            return true;
          case DecodeStatus::Error:
            ++protocol_errors_;
            return false;
          case DecodeStatus::NeedMore:
            break;
        }
        if (timeout_ms >= 0) {
            pollfd pfd{fd_, POLLIN, 0};
            const int rc = ::poll(&pfd, 1, timeout_ms);
            if (rc == 0) {
                timed_out = true;
                return false;
            }
            if (rc < 0 && errno != EINTR) {
                if (error)
                    *error = "poll failed";
                return false;
            }
            if (rc < 0)
                continue;
        }
        std::uint8_t chunk[65536];
        const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (got > 0) {
            decoder_.feed(chunk, static_cast<std::size_t>(got));
            continue;
        }
        if (got < 0 && errno == EINTR)
            continue;
        if (error)
            *error = got == 0 ? "connection closed"
                              : "recv failed";
        return false;
    }
}

bool
Client::roundTrip(const Message &request, Message &response,
                  std::string *error)
{
    return send(request) && receive(response, error);
}

} // namespace net
} // namespace srbenes
