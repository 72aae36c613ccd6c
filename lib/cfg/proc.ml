type subsystem =
  | Parser
  | Optimizer
  | Executor
  | Access_methods
  | Buffer_manager
  | Storage_manager
  | Utility
  | Other

type t = {
  pid : int;
  name : string;
  subsystem : subsystem;
  entry : int;
  blocks : int array;
}

let subsystem_name = function
  | Parser -> "Parser"
  | Optimizer -> "Optimizer"
  | Executor -> "Executor"
  | Access_methods -> "Access Methods"
  | Buffer_manager -> "Buffer Manager"
  | Storage_manager -> "Storage Manager"
  | Utility -> "Utility"
  | Other -> "Other"
