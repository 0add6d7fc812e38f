import pathlib
import sys

# leave no bytecode caches in the source tree
sys.dont_write_bytecode = True
# allow running the suite without installing the package
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
