/// \file
/// Whole-buffer I/O: EINTR-safe full writes to a file descriptor, used
/// by the one out-of-process evaluation transport (the farm protocol over
/// sockets and socketpairs, src/farm/), and atomic whole-file replacement
/// for the checkpoint and cache-store files. Short writes are retried
/// until the buffer completes or the peer is genuinely gone — a peer
/// closing mid-frame surfaces as `false` here and as a connection loss at
/// the protocol layer, never as process death (callers ignore SIGPIPE).

#ifndef GEVO_SUPPORT_IO_H
#define GEVO_SUPPORT_IO_H

#include <cerrno>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

#include <unistd.h>

namespace gevo {

/// Write all \p n bytes, retrying short writes and EINTR. False on any
/// hard error (EPIPE/ECONNRESET when the peer is gone).
inline bool
writeAll(int fd, const char* p, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/// Atomically replace \p path with what \p write streams out: write a
/// process-unique `path + ".tmp.<pid>.<n>"`, then rename it over the
/// target, so readers only ever see a complete old or a complete new file
/// and concurrent savers cannot tear each other's temp files. False with
/// \p error set on I/O failure; the previous file, if any, is left intact.
bool replaceFile(const std::string& path,
                 const std::function<void(std::ostream&)>& write,
                 std::string* error);

} // namespace gevo

#endif // GEVO_SUPPORT_IO_H
