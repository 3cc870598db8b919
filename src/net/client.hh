/**
 * @file
 * Blocking framed client for the srbd protocol.
 *
 * Deliberately simple where the server is deliberately careful: a
 * connected TCP socket, blocking send of encoded frames, blocking
 * receive through the same Decoder the server uses. Thread model is
 * half-duplex-by-thread: ONE thread may call send() while ANOTHER
 * calls receive() (the two directions share no buffers), which is
 * exactly the sender/reader split the open-loop load generator
 * runs. A single-threaded request/response caller (tests, health
 * checks) just alternates send()/receive().
 */

#ifndef SRBENES_NET_CLIENT_HH
#define SRBENES_NET_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hh"

namespace srbenes
{
namespace net
{

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect (blocking); false on failure. */
    bool connect(const std::string &host, std::uint16_t port);

    bool connected() const { return fd_ >= 0; }

    /** Encode and write @p m fully (blocking). */
    bool send(const Message &m);

    /**
     * Block until one complete message arrives. False on EOF,
     * socket error, or protocol error (@p error explains; a decode
     * error also bumps protocol_errors()).
     */
    bool receive(Message &out, std::string *error = nullptr);

    /**
     * receive() bounded by a poll timeout: returns false with
     * @p timed_out = true when no frame completed in time (the
     * stream stays intact — call again).
     */
    bool receiveFor(Message &out, int timeout_ms, bool &timed_out,
                    std::string *error = nullptr);

    /** Malformed frames seen on this connection. */
    std::uint64_t protocolErrors() const { return protocol_errors_; }

    /** Convenience round-trip for single-threaded callers. */
    bool roundTrip(const Message &request, Message &response,
                   std::string *error = nullptr);

    void close();

  private:
    int fd_ = -1;
    /** send()'s frame buffer, reused so a steady stream of sends
     *  stops allocating once it has seen its largest frame. */
    std::vector<std::uint8_t> send_buf_;
    Decoder decoder_;
    std::uint64_t protocol_errors_ = 0;
};

} // namespace net
} // namespace srbenes

#endif // SRBENES_NET_CLIENT_HH
