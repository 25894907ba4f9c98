#include "ctl/command_registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "support/json.hpp"

namespace muerp::ctl {
namespace {

support::json::Value parse_ok(const std::string& text) {
  const support::json::ParseResult parsed = support::json::parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error << " in: " << text;
  return parsed.value;
}

CommandRegistry make_registry() {
  CommandRegistry registry;
  registry.add({"echo",
                "returns its message argument",
                {{"message", ArgType::kString, true, "text to echo"}},
                [](const support::json::Value& args) {
                  return CommandResult::success(
                      support::json::quote(args["message"].string_value));
                }});
  registry.add({"clamp",
                "rejects values outside [0, 1]",
                {{"value", ArgType::kNumber, true, "probability"}},
                [](const support::json::Value& args) {
                  const double v = args["value"].number_value;
                  if (!(v >= 0.0 && v <= 1.0)) {
                    return CommandResult::failure(kErrOutOfRange,
                                                  "value must be in [0, 1]");
                  }
                  return CommandResult::success(support::json::number(v));
                }});
  registry.add({"ping", "no arguments", {}, [](const support::json::Value&) {
                  return CommandResult::success("\"pong\"");
                }});
  registry.add({"busy", "always draining", {},
                [](const support::json::Value&) {
                  return CommandResult::failure(kErrDraining,
                                                "daemon is draining");
                }});
  registry.add({"boom", "throws", {}, [](const support::json::Value&) -> CommandResult {
                  throw std::runtime_error("handler exploded");
                }});
  return registry;
}

TEST(CommandRegistry, SuccessEnvelopeRoundTripsThroughJsonReader) {
  const CommandRegistry registry = make_registry();
  const std::string envelope =
      registry.dispatch(R"({"cmd": "echo", "args": {"message": "hi \"there\""}})");
  const support::json::Value doc = parse_ok(envelope);
  ASSERT_TRUE(doc["ok"].is_bool());
  EXPECT_TRUE(doc["ok"].bool_value);
  ASSERT_TRUE(doc["result"].is_string());
  EXPECT_EQ(doc["result"].string_value, "hi \"there\"");
  EXPECT_EQ(doc.find("error"), nullptr);
  EXPECT_EQ(doc.find("code"), nullptr);
  EXPECT_EQ(envelope.back(), '\n');
}

TEST(CommandRegistry, NoArgsCommandAcceptsMissingAndEmptyArgs) {
  const CommandRegistry registry = make_registry();
  for (const char* request :
       {R"({"cmd": "ping"})", R"({"cmd": "ping", "args": {}})"}) {
    const support::json::Value doc = parse_ok(registry.dispatch(request));
    EXPECT_TRUE(doc["ok"].bool_value) << request;
    EXPECT_EQ(doc["result"].string_value, "pong");
  }
}

// The stable error-code table: each failure mode maps to exactly one code.
struct ErrorCase {
  const char* request;
  const char* code;
};

TEST(CommandRegistry, ErrorCodeTable) {
  const CommandRegistry registry = make_registry();
  const ErrorCase cases[] = {
      {"not json at all", kErrBadRequest},
      {R"([1, 2, 3])", kErrBadRequest},
      {R"({"args": {}})", kErrBadRequest},            // missing cmd
      {R"({"cmd": 7})", kErrBadRequest},              // cmd not a string
      {R"({"cmd": "ping", "args": []})", kErrBadRequest},  // args not object
      {R"({"cmd": "ping", "extra": 1})", kErrBadRequest},  // unknown member
      {R"({"cmd": "nope"})", kErrUnknownCommand},
      {R"({"cmd": "echo"})", kErrBadArg},             // required arg missing
      {R"({"cmd": "echo", "args": {"message": 9}})", kErrBadArg},  // type
      {R"({"cmd": "echo", "args": {"message": "x", "junk": 1}})", kErrBadArg},
      {R"({"cmd": "clamp", "args": {"value": 1.5}})", kErrOutOfRange},
      {R"({"cmd": "busy"})", kErrDraining},
      {R"({"cmd": "boom"})", kErrInternal},
  };
  for (const ErrorCase& c : cases) {
    const support::json::Value doc = parse_ok(registry.dispatch(c.request));
    ASSERT_TRUE(doc["ok"].is_bool()) << c.request;
    EXPECT_FALSE(doc["ok"].bool_value) << c.request;
    EXPECT_EQ(doc["code"].string_value, c.code) << c.request;
    EXPECT_TRUE(doc["error"].is_string()) << c.request;
    EXPECT_FALSE(doc["error"].string_value.empty()) << c.request;
  }
}

TEST(CommandRegistry, UnknownCommandListsTheKnownVerbs) {
  const CommandRegistry registry = make_registry();
  const support::json::Value doc =
      parse_ok(registry.dispatch(R"({"cmd": "zzz"})"));
  EXPECT_NE(doc["error"].string_value.find("echo"), std::string::npos);
  EXPECT_NE(doc["error"].string_value.find("ping"), std::string::npos);
}

TEST(CommandRegistry, RunDispatchesWithoutEnvelope) {
  const CommandRegistry registry = make_registry();
  const support::json::ParseResult args =
      support::json::parse(R"({"value": 0.5})");
  ASSERT_TRUE(args.ok());
  const CommandResult result = registry.run("clamp", args.value);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.result_json, support::json::number(0.5));
}

TEST(CommandRegistry, AddRejectsDuplicatesAndFindIsSorted) {
  CommandRegistry registry = make_registry();
  EXPECT_THROW(registry.add({"echo", "again", {}, nullptr}),
               std::invalid_argument);
  EXPECT_NE(registry.find("echo"), nullptr);
  EXPECT_EQ(registry.find("zzz"), nullptr);
}

TEST(CommandRegistry, DescribeJsonListsCommandsWithSchemas) {
  const CommandRegistry registry = make_registry();
  const support::json::Value doc = parse_ok(registry.describe_json());
  ASSERT_TRUE(doc["commands"].is_array());
  bool found_echo = false;
  for (const support::json::Value& command : doc["commands"].elements) {
    if (command["name"].string_value != "echo") continue;
    found_echo = true;
    EXPECT_EQ(command["summary"].string_value, "returns its message argument");
    ASSERT_EQ(command["args"].elements.size(), 1u);
    EXPECT_EQ(command["args"][0]["name"].string_value, "message");
    EXPECT_TRUE(command["args"][0]["required"].bool_value);
  }
  EXPECT_TRUE(found_echo);
}

TEST(CommandRegistry, IntArgsMustBeExactIntegers) {
  CommandRegistry registry;
  registry.add({"nth", "takes an int", {{"n", ArgType::kInt, true, "index"}},
                [](const support::json::Value&) {
                  return CommandResult::success();
                }});
  const auto code_of = [&registry](const char* args) {
    const support::json::ParseResult parsed = support::json::parse(args);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    const CommandResult result = registry.run("nth", parsed.value);
    return result.ok ? std::string("ok") : result.code;
  };
  EXPECT_EQ(code_of(R"({"n": 7})"), "ok");
  EXPECT_EQ(code_of(R"({"n": -9007199254740992})"), "ok");  // -2^53
  EXPECT_EQ(code_of(R"({"n": 1.5})"), kErrBadArg);
  // Past 2^53 a double no longer holds every integer, and a cast to a
  // 64-bit integer can overflow: the schema refuses it.
  EXPECT_EQ(code_of(R"({"n": 1e20})"), kErrBadArg);
  EXPECT_EQ(code_of(R"({"n": "7"})"), kErrBadArg);
}

}  // namespace
}  // namespace muerp::ctl
