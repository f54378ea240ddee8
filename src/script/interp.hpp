// Tree-walking interpreter for the lab-script DSL.
//
// A device method call (`viperx.move_to(position=[x,y,z])`) is the unit the
// tracer intercepts: the interpreter hands it to a CommandSink, which either
// records it, or forwards it through the RABIT supervisor to the backend.
// The sink's return value feeds back into the script (e.g. a solubility
// measurement driving a while loop, as in Fig. 1b).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "devices/device.hpp"
#include "json/json.hpp"
#include "script/ast.hpp"
#include "script/parser.hpp"
#include "trace/trace.hpp"

namespace rabit::script {

/// Thrown when a supervised command triggers a RABIT alert: the experiment
/// halts mid-script, like RATracer raising a Python exception (§II-C).
class ExperimentHalted : public std::runtime_error {
 public:
  explicit ExperimentHalted(const std::string& message)
      : std::runtime_error("experiment halted: " + message) {}
};

/// Where device commands go.
class CommandSink {
 public:
  virtual ~CommandSink() = default;
  /// Executes (or records) a command; the returned value is the command's
  /// script-visible result (null for most commands).
  virtual json::Value on_command(const dev::Command& cmd) = 0;
};

/// Collects commands without executing anything — used to materialize a
/// linear workflow for mutation (the bug-injection pipeline) or inspection.
class RecordingSink : public CommandSink {
 public:
  json::Value on_command(const dev::Command& cmd) override {
    commands_.push_back(cmd);
    return json::Value();
  }
  [[nodiscard]] const std::vector<dev::Command>& commands() const { return commands_; }
  [[nodiscard]] std::vector<dev::Command> take() { return std::move(commands_); }

 private:
  std::vector<dev::Command> commands_;
};

/// Forwards commands through the RABIT supervisor; alerts halt the script.
class SupervisorSink : public CommandSink {
 public:
  explicit SupervisorSink(trace::Supervisor* supervisor);
  json::Value on_command(const dev::Command& cmd) override;

 private:
  trace::Supervisor* supervisor_;
};

/// Script runtime values: JSON data or a device reference.
struct Value {
  json::Value data;
  std::string device;  ///< non-empty when this value names a device

  Value() = default;
  explicit Value(json::Value v) : data(std::move(v)) {}
  [[nodiscard]] static Value device_ref(std::string id) {
    Value v;
    v.device = std::move(id);
    return v;
  }
  [[nodiscard]] bool is_device() const { return !device.empty(); }
};

class Interpreter {
 public:
  explicit Interpreter(CommandSink* sink);

  /// Declares an identifier that resolves to a device (method calls on it
  /// become commands).
  void register_device(const std::string& name);
  /// Registers every device in a registry under its own id.
  void register_devices(const dev::DeviceRegistry& registry);

  /// Seeds a global variable (e.g. the hardcoded `locations` table of
  /// Fig. 6).
  void set_global(const std::string& name, json::Value value);

  /// Parses and runs a script. Throws ScriptError for language errors and
  /// ExperimentHalted when the sink aborts.
  void run(std::string_view source);
  void run(const Program& program);

  /// Reads back a global (for tests); throws std::out_of_range when absent.
  [[nodiscard]] const json::Value& global(const std::string& name) const;

 private:
  struct Function {
    std::vector<std::string> params;
    std::shared_ptr<Block> body;
  };
  struct Scope;

  struct ReturnSignal {
    Value value;
  };

  Value evaluate(const Expr& expr, Scope& scope);
  void execute_block(const Block& block, Scope& scope);
  void execute(const Stmt& stmt, Scope& scope);
  Value call_function(const std::string& name, std::vector<Value> args, int line);
  Value emit_command(const std::string& device, const std::string& method,
                     const std::vector<CallArg>& args, Scope& scope, int line);

  CommandSink* sink_;
  std::map<std::string, Value> globals_;
  std::map<std::string, Function> functions_;
  int call_depth_ = 0;  ///< user-function frames on the stack
};

}  // namespace rabit::script
