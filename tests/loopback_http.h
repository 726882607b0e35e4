// Loopback HTTP/1.0 for the tests that talk to a live stats endpoint:
// real sockets against the port the server bound, the way an operator's
// curl reaches it.

#ifndef NC_TESTS_LOOPBACK_HTTP_H_
#define NC_TESTS_LOOPBACK_HTTP_H_

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>

namespace nc {

// Sends `raw` to 127.0.0.1:`port` and reads until the server closes.
// False when the connection is refused or reset before a byte arrives,
// which a test racing a server's shutdown must tolerate.
inline bool TryHttpRequest(uint16_t port, const std::string& raw,
                           std::string* response) {
  response->clear();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    for (size_t sent = 0; sent < raw.size();) {
      const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    char buffer[4096];
    for (ssize_t n; (n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0;) {
      response->append(buffer, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return !response->empty();
}

inline bool TryHttpGet(uint16_t port, const std::string& path,
                       std::string* response) {
  return TryHttpRequest(port, "GET " + path + " HTTP/1.0\r\n\r\n", response);
}

// A request that must be answered.
inline std::string HttpRequest(uint16_t port, const std::string& raw) {
  std::string response;
  EXPECT_TRUE(TryHttpRequest(port, raw, &response)) << raw;
  return response;
}

inline std::string HttpGet(uint16_t port, const std::string& path) {
  return HttpRequest(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

// The response body (after the blank line).
inline std::string Body(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

}  // namespace nc

#endif  // NC_TESTS_LOOPBACK_HTTP_H_
