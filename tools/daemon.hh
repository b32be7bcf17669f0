/**
 * @file
 * The daemon lifecycle dse_serve and dse_simworker share.
 */

#ifndef DSE_TOOLS_DAEMON_HH
#define DSE_TOOLS_DAEMON_HH

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "serve/server.hh"

namespace dse {
namespace cli {

/**
 * Run a started @p server until SIGINT or SIGTERM, then drain it:
 * print "<banner> on <addr>:<port>", write the bound port to
 * @p portFile if one is given (scripts poll it to learn an ephemeral
 * port; a failed write throws std::runtime_error), park on
 * Server::waitForStopRequest(), print "draining..." and stop().
 */
inline void
serveUntilSignalled(serve::Server &server, const char *banner,
                    const std::string &addr, const std::string &portFile)
{
    // A signal handler can reach the server only through a global.
    static std::atomic<serve::Server *> target{nullptr};
    target.store(&server);
    auto stopOnSignal = [](int) {
        // Async-signal-safe: flips an atomic and pokes the wake pipe.
        if (serve::Server *s = target.load())
            s->requestStop();
    };
    std::signal(SIGINT, stopOnSignal);
    std::signal(SIGTERM, stopOnSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("%s on %s:%u\n", banner, addr.c_str(), server.port());
    std::fflush(stdout);
    if (!portFile.empty()) {
        FILE *f = std::fopen(portFile.c_str(), "w");
        bool written = f && std::fprintf(f, "%u\n", server.port()) > 0;
        if (f && std::fclose(f) != 0)
            written = false;
        if (!written) {
            target.store(nullptr);  // the caller destroys the server
            throw std::runtime_error("cannot write port file " + portFile +
                                     ": " + std::strerror(errno));
        }
    }

    server.waitForStopRequest();
    std::printf("draining...\n");
    server.stop();
    target.store(nullptr);
}

} // namespace cli
} // namespace dse

#endif // DSE_TOOLS_DAEMON_HH
