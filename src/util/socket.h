/**
 * @file
 * Minimal POSIX TCP helpers shared by the HTTP layer (src/serve/) and
 * its tests: open/accept/connect loopback sockets and move whole
 * buffers through them. Everything is blocking; concurrency is the
 * caller's job (the HTTP server owns a worker pool, the tests spawn
 * plain threads).
 *
 * All functions report failure by throwing std::runtime_error with the
 * errno text, except where noted. File descriptors are plain ints so
 * no platform header leaks out of this file; Socket is a tiny RAII
 * owner for scopes that would otherwise leak one on an exception.
 */

#ifndef PROSPERITY_UTIL_SOCKET_H
#define PROSPERITY_UTIL_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace prosperity::net {

/** Invalid descriptor marker (never returned by the open helpers). */
inline constexpr int kInvalidFd = -1;

/**
 * Create a listening IPv4 TCP socket on 127.0.0.1:`port` (port 0 picks
 * a free ephemeral port) with SO_REUSEADDR set. On return `bound_port`
 * holds the actual port. Throws std::runtime_error on failure.
 */
int openListener(std::uint16_t port, int backlog,
                 std::uint16_t* bound_port);

/**
 * Accept one connection, waiting at most `timeout_ms`. Returns the
 * connected descriptor, or kInvalidFd on timeout (so an accept loop
 * can poll a stop flag without platform-specific wakeup tricks).
 * Throws std::runtime_error on a real accept failure.
 */
int acceptWithTimeout(int listener_fd, int timeout_ms);

/** Connect to 127.0.0.1:`port`. Throws std::runtime_error on failure. */
int connectLoopback(std::uint16_t port);

/**
 * Wait until `fd` is readable (data, EOF or error — anything that
 * makes a recv() return immediately). Returns false on timeout.
 * Throws std::runtime_error on a poll failure.
 */
bool waitReadable(int fd, int timeout_ms);

/**
 * The CPU that last processed data received on `fd`
 * (SO_INCOMING_CPU), or -1 where the platform does not say. On a
 * loopback connection that is the CPU the peer sent from.
 */
int incomingCpu(int fd);

/**
 * Write all `size` bytes (SIGPIPE suppressed). Returns false when the
 * peer has gone away (EPIPE / ECONNRESET) — routine during shutdown —
 * and throws std::runtime_error on other errors.
 */
bool writeAll(int fd, const void* data, std::size_t size);

/**
 * Read up to `size` bytes into `data`. Returns the number of bytes
 * read; 0 means orderly EOF. Throws std::runtime_error on error.
 */
std::size_t readSome(int fd, void* data, std::size_t size);

/** Close `fd` (ignores kInvalidFd and close errors). */
void closeFd(int fd);

/** RAII descriptor owner (movable, closes on destruction). */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { closeFd(fd_); }

    Socket(Socket&& other) noexcept : fd_(other.release()) {}
    Socket& operator=(Socket&& other) noexcept
    {
        if (this != &other) {
            closeFd(fd_);
            fd_ = other.release();
        }
        return *this;
    }
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ != kInvalidFd; }

    /** Give up ownership without closing. */
    int release()
    {
        const int fd = fd_;
        fd_ = kInvalidFd;
        return fd;
    }

    void reset(int fd = kInvalidFd)
    {
        closeFd(fd_);
        fd_ = fd;
    }

  private:
    int fd_ = kInvalidFd;
};

} // namespace prosperity::net

#endif // PROSPERITY_UTIL_SOCKET_H
