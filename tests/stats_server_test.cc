// StatsServer: the embedded loopback HTTP/1.0 introspection endpoint.
//
// These are real-socket tests: every request goes through connect(),
// send(), and recv() against the ephemeral port the server bound, so the
// request-line parsing, the path dispatch, and the HTTP framing are
// exercised exactly as an operator's curl would.

#include "server/stats_server.h"

#include <gtest/gtest.h>

#include <string>

#include "loopback_http.h"

namespace nc::server {
namespace {

TEST(StatsServerTest, ServesRegisteredHandlersOnEphemeralPort) {
  StatsServer server;
  server.Handle("/hello", [] {
    HttpResponse response;
    response.body = "hi\n";
    return response;
  });
  int calls = 0;
  server.Handle("/count", [&calls] {
    HttpResponse response;
    response.body = std::to_string(++calls) + "\n";
    return response;
  });
  ASSERT_TRUE(server.Start(/*port=*/0).ok());
  ASSERT_TRUE(server.running());
  const uint16_t port = server.port();
  ASSERT_GT(port, 0);

  const std::string hello = HttpGet(port, "/hello");
  EXPECT_NE(hello.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(hello.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(hello.find("Content-Length: 3"), std::string::npos);
  EXPECT_NE(hello.find("Connection: close"), std::string::npos);
  EXPECT_EQ(Body(hello), "hi\n");

  // Handlers run per request (fresh evaluation, not a cached body).
  EXPECT_EQ(Body(HttpGet(port, "/count")), "1\n");
  EXPECT_EQ(Body(HttpGet(port, "/count")), "2\n");

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(StatsServerTest, QueryStringsAreStrippedForDispatch) {
  StatsServer server;
  server.Handle("/metrics", [] {
    HttpResponse response;
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(Body(HttpGet(server.port(), "/metrics?format=prometheus")), "ok");
  server.Stop();
}

TEST(StatsServerTest, UnknownPathIs404) {
  StatsServer server;
  server.Handle("/known", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response = HttpGet(server.port(), "/unknown");
  EXPECT_NE(response.find("HTTP/1.0 404 Not Found"), std::string::npos);
  server.Stop();
}

TEST(StatsServerTest, NonGetIs405AndGarbageIs400) {
  StatsServer server;
  server.Handle("/metrics", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();
  EXPECT_NE(HttpRequest(port, "POST /metrics HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 405"),
            std::string::npos);
  EXPECT_NE(HttpRequest(port, "garbage\r\n\r\n").find("HTTP/1.0 400"),
            std::string::npos);
  server.Stop();
}

TEST(StatsServerTest, HandlerStatusAndContentTypePropagate) {
  StatsServer server;
  server.Handle("/varz", [] {
    HttpResponse response;
    response.status = 503;
    response.content_type = "application/json";
    response.body = "{}";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response = HttpGet(server.port(), "/varz");
  EXPECT_NE(response.find("HTTP/1.0 503 Service Unavailable"),
            std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_EQ(Body(response), "{}");
  server.Stop();
}

TEST(StatsServerTest, LifecycleIsIdempotentAndRestartable) {
  StatsServer server;
  server.Handle("/x", [] { return HttpResponse{}; });
  server.Stop();  // Stopping a never-started server is a no-op.
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(server.Start(0).code(), StatusCode::kFailedPrecondition);
  const uint16_t first_port = server.port();
  EXPECT_NE(HttpGet(first_port, "/x").find("200 OK"), std::string::npos);
  server.Stop();
  server.Stop();  // Idempotent.

  // Restart binds a fresh port and serves again.
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(HttpGet(server.port(), "/x").find("200 OK"), std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace nc::server
