"""gexpkit: staged build programs with hygienic escapes, a
content-addressed store, and a deterministic builder."""

from .builder import BuildError, EvalEnv, build, mini_eval, plan
from .gexp import (Gexp, HostEnv, StagingError, alpha_rename, eval_host,
                   gexp_inputs, gexp_modules, gexp_outputs, gexp_to_sexp,
                   stage, substitute_escapes)
from .lowerable import (FileAppend, GexpCompiler, LocalFile, Lowering,
                        LoweringError, Package, PlainFile, expand_object,
                        file_append, gexp_to_derivation, lower_gexp,
                        lower_object, register_compiler)
from .modules import (ModuleError, ModuleFile, ModuleName,
                      intern_module_closure, source_module_closure)
from .sexp import (Boolean, Integer, Keyword, ParseError, Sexp, SList, String,
                   Symbol, hash_sexp, print_canonical, read, read_all, slist)
from .store import (DEFAULT_SYSTEM, Derivation, Store, StoreError, StorePath,
                    derivation_text, derivation_from_sexp,
                    find_store_references, output_path, parse_store_path,
                    read_derivation, write_derivation)

__version__ = "0.1.0"

__all__ = [
    "BuildError", "Boolean", "DEFAULT_SYSTEM", "Derivation", "EvalEnv",
    "FileAppend", "Gexp", "GexpCompiler", "HostEnv", "Integer", "Keyword",
    "LocalFile", "Lowering", "LoweringError", "ModuleError", "ModuleFile",
    "ModuleName", "Package", "ParseError", "PlainFile", "Sexp", "SList",
    "StagingError", "Store", "StoreError", "StorePath", "String", "Symbol",
    "alpha_rename", "build", "derivation_from_sexp", "derivation_text",
    "eval_host", "expand_object", "file_append", "find_store_references",
    "gexp_inputs", "gexp_modules", "gexp_outputs", "gexp_to_derivation",
    "gexp_to_sexp", "hash_sexp", "intern_module_closure", "lower_gexp",
    "lower_object", "mini_eval", "output_path", "parse_store_path", "plan",
    "print_canonical", "read", "read_all", "read_derivation",
    "register_compiler", "slist", "source_module_closure", "stage",
    "substitute_escapes", "write_derivation",
]
