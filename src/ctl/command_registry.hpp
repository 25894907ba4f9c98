// Versioned command API for runtime administration of muerp daemons.
//
// A CommandRegistry is a name -> handler table with typed argument schemas,
// modeled on mopherctl's command-table -> control-socket design: the daemon
// registers its verbs once, the transport (POST /api/v1/ctl on the HTTP
// exporter) hands every request body to dispatch(), and every response is
// the same JSON envelope no matter which command ran:
//
//   request    {"cmd": "<name>", "args": {...}}        (args optional)
//   success    {"ok": true, "result": <value>}
//   failure    {"ok": false, "code": "<stable>", "error": "<message>"}
//
// Error codes are STABLE strings — clients branch on them, so they are part
// of the API: bad_request (unparseable/misshapen envelope), unknown_command,
// bad_arg (missing/mistyped/unknown argument), out_of_range (well-typed but
// invalid value), draining (daemon refuses mutations while draining),
// unsupported (valid request the current configuration cannot honor),
// shutting_down (daemon exiting before the command could run), internal
// (handler threw), unauthorized (missing or wrong --ctl-token bearer
// token), not_found (no such resource, e.g. an unknown session id).
//
// The registry itself is transport- and daemon-agnostic: handlers are plain
// std::functions returning a CommandResult, argument validation happens
// before dispatch (a handler never sees a missing required argument or a
// string where its schema said number), and describe_json() serves the
// whole command table for discovery. Thread safety: registration is
// construction-time wiring; dispatch() is const and safe from any thread as
// long as the handlers themselves are (muerpd's handlers serialize through
// a ControlMailbox — see mailbox.hpp).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace muerp::ctl {

// ---------------------------------------------------------------------------
// Stable error codes (the client-visible contract).

inline constexpr char kErrBadRequest[] = "bad_request";
inline constexpr char kErrUnknownCommand[] = "unknown_command";
inline constexpr char kErrBadArg[] = "bad_arg";
inline constexpr char kErrOutOfRange[] = "out_of_range";
inline constexpr char kErrDraining[] = "draining";
inline constexpr char kErrUnsupported[] = "unsupported";
inline constexpr char kErrShuttingDown[] = "shutting_down";
inline constexpr char kErrInternal[] = "internal";
inline constexpr char kErrUnauthorized[] = "unauthorized";
inline constexpr char kErrNotFound[] = "not_found";

// ---------------------------------------------------------------------------
// Command table.

/// What one command invocation produced. `result_json` must be a complete
/// JSON value (object, string, number, ...) — it is embedded verbatim as
/// the envelope's "result" member.
struct CommandResult {
  bool ok = true;
  std::string result_json = "null";
  std::string code;     // one of the kErr* constants when !ok
  std::string message;  // human-readable detail when !ok

  static CommandResult success(std::string result_json = "null") {
    CommandResult r;
    r.result_json = std::move(result_json);
    return r;
  }
  static CommandResult failure(std::string code, std::string message) {
    CommandResult r;
    r.ok = false;
    r.code = std::move(code);
    r.message = std::move(message);
    return r;
  }
};

/// Argument value kinds the schema can require. kInt additionally requires
/// the number to be integral and within +-2^53; kAny accepts any JSON value
/// (the handler type-checks itself — used by `set`, whose value type
/// depends on the setting named).
enum class ArgType { kString, kNumber, kInt, kBool, kAny };

const char* arg_type_name(ArgType type) noexcept;

struct ArgSpec {
  std::string name;
  ArgType type = ArgType::kString;
  bool required = true;
  std::string help;
};

using CommandHandler =
    std::function<CommandResult(const support::json::Value& args)>;

struct CommandSpec {
  std::string name;
  std::string summary;
  std::vector<ArgSpec> args;
  CommandHandler handler;
};

class CommandRegistry {
 public:
  /// Registers a command; throws std::invalid_argument on a duplicate name
  /// or an empty handler (wiring bugs fail at startup, not mid-request).
  void add(CommandSpec spec);

  const CommandSpec* find(std::string_view name) const noexcept;

  /// All commands, sorted by name.
  const std::vector<CommandSpec>& commands() const noexcept {
    return commands_;
  }

  /// Validates `args` against the named command's schema and invokes the
  /// handler. Unknown command, missing required argument, mistyped or
  /// unknown argument all come back as failures with the matching stable
  /// code; a throwing handler becomes kErrInternal.
  CommandResult run(std::string_view cmd,
                    const support::json::Value& args) const;

  /// Full transport entry point: parses `request_body`, runs the command,
  /// and returns the serialized response envelope (newline-terminated).
  /// Never throws — every failure mode is an envelope with a stable code.
  std::string dispatch(std::string_view request_body) const;

  /// The command table as JSON:
  /// {"commands": [{"name", "summary", "args": [{"name","type","required",
  /// "help"}]}]} — what the `commands` verb and `muerpctl ctl help` render.
  std::string describe_json() const;

  /// Serializes `result` into the uniform response envelope.
  static std::string envelope(const CommandResult& result);

 private:
  std::vector<CommandSpec> commands_;  // kept sorted by name
};

/// Renders a command-line token as the JSON value the ctl API expects:
/// numbers and booleans pass through typed, everything else is a string.
/// `muerpctl ctl set <name> <value>` and muerpd's setting flags both type
/// their text with it, so a flag and `ctl set` hand a setting row the same
/// value.
std::string token_json(const std::string& text);

}  // namespace muerp::ctl
