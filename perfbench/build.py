"""Build file of the benchmark.

Compiles the program's main sources (`src/main/scala`) together with the
benchmark's own sources (`perfbench/src`) into `.bench_build/classes`, using
the Scala compiler that ships in Spark's `jars` directory. The compile is
skipped when no source changed since the last build.

    python3 perfbench/build.py        # from the repository root
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
BUILD = ROOT / ".bench_build"
CLASSES = BUILD / "classes"


class BuildError(Exception):
    pass


def spark_jars():
    """Spark's jar directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(pathlib.Path(submit).resolve().parent.parent)
    jars = pathlib.Path(home or "") / "jars"
    if not home or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("Spark jars with a Scala compiler not found; set SPARK_HOME")
    return jars


def sources():
    program = ROOT / "src" / "main" / "scala"
    if not program.is_dir():
        raise BuildError(f"program sources not found under {program}; run from the repository root")
    found = sorted(program.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala"))
    if not found:
        raise BuildError("no Scala sources found")
    return found


def build():
    """Compiles if needed and returns the class path of the benchmark."""
    jars = spark_jars()
    srcs = sources()
    digest = hashlib.sha256()
    for jar in sorted(jars.glob("scala-*.jar")):
        digest.update(jar.name.encode())
    for src in srcs:
        digest.update(str(src.relative_to(ROOT)).encode())
        digest.update(src.read_bytes())
    stamp = digest.hexdigest()
    classpath = f"{CLASSES}{os.pathsep}{jars}/*"
    stamp_file = CLASSES / ".stamp"
    if stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classpath
    tmp = BUILD / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(s) for s in srcs]
    print(f"# compiling {len(srcs)} sources", file=sys.stderr)
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        raise BuildError("compile failed:\n" + res.stdout[-4000:])
    (tmp / ".stamp").write_text(stamp)
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build error: {e}", file=sys.stderr)
        sys.exit(1)
