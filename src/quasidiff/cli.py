"""Command-line front end.

Subcommands mirror the library: gen (lattice, model-set, substitution),
perturb (percolate, displace), diffract (scan, peak, peaks), predict
(model-set, perturbed), ww, check (lr, subadditive). Every output embeds the
artifact version, the resolved configuration, and the SHA-256 of the main
input file's bytes as the command read them, once, and contains no
timestamps: rerunning a command with identical inputs produces byte-identical
files. A point set parsed from an input file is reused by later main calls in
the same process that read the same bytes (_PARSED). Exit codes: 0 success, 2
validation error, 3 resource cap exceeded, 4 numerical diagnostic failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import sys
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .cutproject import (
    CutProjectScheme,
    deformed_amplitude,
    deformed_model_set,
    dual_peaks,
    model_set,
    preset_scheme,
)
from .diffraction import (
    _THREAD_CAP,
    Spectrum,
    _entry,
    _evaluator,
    _scan,
    _write_csv,
    find_peaks,
    fourier_average,
    scan_spectrum,
    spectrum_from_csv,
    spectrum_to_csv,
)
from .ergodic import (
    Observable,
    check_linear_repetitivity,
    subadditive_limit,
    ww_report,
)
from .errors import NumericalDiagnosticError, ResourceLimitError, ValidationError
from .geometry import Box, VanHoveCubes, _vector, cube_sequence
from .pointset import (
    Substitution,
    WeightedPointSet,
    _json_parts,
    _json_record,
    _text,
    _write_parts,
    named_substitution,
    substitution_fixed_point,
    word_to_pointset,
)
from .randomize import DisplacementDist, RandomModel, displace, percolate, predicted_intensity

# execution hints and destinations are not part of the reproducible config
_CONFIG_EXCLUDE = {"func", "command", "subcommand", "threads", "output"}
# most frequencies a start:stop:step grid may expand to
_GRID_CAP = 10**6
# most van Hove cubes --vanhove may ask for (at growth 1.01 the last is ~2e4 side0)
_CUBE_CAP = 1000
# most radii a lo..hi range may expand to
_RADII_CAP = 10**4
# most letters a word may have (gen substitution; ww and check lr, generated or read)
_LETTER_CAP = 10**7
# most coordinates (points times dimension) the point sets held across main calls hold in
# total (_PARSED); an input with more is parsed at every call
_HELD_COORDS = 2**20
# most midpoint-rule nodes, --quad ** d_int, per deformed amplitude
_QUAD_CAP = 10**7
# most boxes check subadditive evaluates and reports, --samples times the scales
_SAMPLE_CAP = 10**5
# argparse reads a value starting with "-" as an option unless it is attached
_BOX_HELP = "lo,hi or lo1,lo2;hi1,hi2 (write --box=-2,832 when lo is negative)"
_THREADS_HELP = (
    f"worker threads, 1 to {_THREAD_CAP} (64, or the core count if higher); "
    "output does not depend on it"
)


def _read_input(path: str, what: str) -> tuple[bytes, str]:
    """The bytes of the input file at path and their SHA-256 hex digest, for the envelope's
    input_hash; an unreadable file raises ValidationError(f"{what}: ...")."""
    with _invalid(what):
        data = Path(path).read_bytes()
    return data, hashlib.sha256(data).hexdigest()


def _resolved_config(args: argparse.Namespace) -> dict:
    cfg = {"command": f"{args.command} {args.subcommand}" if getattr(args, "subcommand", None) else args.command}
    for key, value in vars(args).items():
        if key in _CONFIG_EXCLUDE:
            continue
        cfg[key] = value
    return cfg


def _envelope(args: argparse.Namespace, input_hash: str | None) -> dict:
    return {
        "version": __version__,
        "config": _resolved_config(args),
        "input_hash": input_hash,
    }


def _emit(write, output: str | None) -> None:
    """Call write(fh) with output opened as text, or with stdout."""
    if output:
        with _invalid(f"cannot write output {output}"), Path(output).open("w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _emit_json(payload: dict, args: argparse.Namespace, input_hash: str | None = None) -> None:
    obj = dict(_envelope(args, input_hash))
    obj.update(payload)
    with _invalid("output has a non-finite number"):
        parts = _json_parts(obj)
    _emit(functools.partial(_write_parts, parts + ["\n"]), args.output)


def _csv_envelope(args: argparse.Namespace, input_hash: str | None) -> dict:
    env = _envelope(args, input_hash)
    return {
        "version": env["version"],
        "config": json.dumps(env["config"], sort_keys=True),
        "input_hash": env["input_hash"] if env["input_hash"] is not None else "null",
    }


def _emit_csv(args: argparse.Namespace, input_hash: str | None, head: list, rows) -> None:
    """The envelope, header and rows as a CSV table (_write_csv) to the output."""
    env = _csv_envelope(args, input_hash)
    _emit(lambda fh: _write_csv(fh, env, head, rows), args.output)


@contextmanager
def _invalid(what: str):
    """Report a KeyError, ValueError, OverflowError or OSError raised inside as a ValidationError."""
    try:
        yield
    except ValidationError:
        raise
    except (KeyError, ValueError, OverflowError, OSError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"{what}: {detail}") from exc


def _parse_floats(text: str) -> list[float]:
    with _invalid(f"cannot parse float list {text!r}"):
        return [float(t) for t in text.split(",") if t.strip() != ""]


def _parse_ints(text: str) -> list[int]:
    with _invalid(f"cannot parse integer list {text!r}"):
        return [int(t) for t in text.split(",") if t.strip() != ""]


def _parse_vector(text: str) -> list[float]:
    """Frequency vector: scalar `1.89` or semicolon components `1.89;0.5`."""
    with _invalid(f"cannot parse vector {text!r}"):
        return [float(t) for t in text.split(";")]


def _parse_box(text: str) -> Box:
    """`lo,hi` in 1D; `lo1,lo2;hi1,hi2` in general."""
    if ";" in text:
        lo_s, hi_s = text.split(";", 1)
        return Box(_parse_floats(lo_s), _parse_floats(hi_s))
    vals = _parse_floats(text)
    if len(vals) != 2:
        raise ValidationError(f"1D box needs `lo,hi`, got {text!r}")
    return Box([vals[0]], [vals[1]])


def _parse_grid(text: str) -> list[float]:
    """`start:stop:step` (stop exclusive, stepping by index) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"range syntax is start:stop:step, got {text!r}")
        with _invalid(f"cannot parse frequency range {text!r}"):
            start, stop, step = (float(p) for p in parts)
        if not step > 0:
            raise ValidationError("grid step must be positive")
        count = np.ceil((stop - start) / step - 1e-12)
        if not count >= 1:
            raise ValidationError(f"empty frequency range {text!r}")
        if count > _GRID_CAP:
            raise ResourceLimitError(f"frequency range {text!r} has {count:.3g} points, over {_GRID_CAP}")
        return [start + i * step for i in range(int(count))]
    return _parse_floats(text)


def _parse_radii(text: str) -> list[int]:
    """`1..100` (inclusive) or a comma list of integers."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        with _invalid(f"cannot parse radius range {text!r}"):
            lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValidationError(f"empty radius range {text!r}")
        if hi - lo >= _RADII_CAP:
            raise ResourceLimitError(f"radius range {text!r} has {hi - lo + 1} radii, over {_RADII_CAP}")
        return list(range(lo, hi + 1))
    return _parse_ints(text)


def _parse_params(
    text: str, what: str, malformed: str = "{what} {item} must be key=value",
    convert=float, strip: bool = True,
) -> dict:
    """`key=value,...` as {key: convert(value)}; keys are stripped unless strip is false.

    what names an item in conversion errors; malformed is the message for an
    item without `=`, with fields {what} and {item}.
    """
    fields = {}
    for item in text.split(","):
        key, eq, val = item.partition("=")
        if not eq:
            raise ValidationError(malformed.format(what=what, item=repr(item)))
        with _invalid(f"cannot parse {what} {item!r}"):
            fields[key.strip() if strip else key] = convert(val)
    return fields


def _parse_dist(text: str) -> DisplacementDist:
    """`uniform_interval:a=0.1`, `two_point:a=0.25`, or a JSON file path."""
    if Path(text).is_file():
        with _invalid(f"distribution file {text}"):
            return DisplacementDist.from_json(json.loads(Path(text).read_text()))
    if ":" not in text:
        raise ValidationError(
            f"distribution spec {text!r} is neither kind:params nor an existing file"
        )
    kind, params = text.split(":", 1)
    fields = _parse_params(params, "distribution parameter")
    if kind in ("uniform_interval", "two_point"):
        if set(fields) != {"a"}:
            raise ValidationError(f"{kind} takes exactly the parameter a")
        return DisplacementDist(kind=kind, a=fields["a"])
    raise ValidationError(f"unknown distribution kind {kind!r} (table kind needs a JSON file)")


def _parse_model(text: str) -> RandomModel:
    """Model JSON file path or compact `percolation:p=0.5` / `displacement:<dist>`."""
    with _invalid(f"cannot parse model {text!r}"):
        if Path(text).is_file():
            return RandomModel.from_json(json.loads(Path(text).read_text()))
        if text.startswith("percolation:"):
            fields = _parse_params(
                text.split(":", 1)[1], "percolation parameter", convert=str, strip=False
            )
            return RandomModel("percolation", int(fields.get("seed", 0)), p=float(fields["p"]))
        if text.startswith("displacement:"):
            return RandomModel("displacement", 0, dist=_parse_dist(text.split(":", 1)[1]))
    raise ValidationError(f"cannot parse model {text!r}")


def _load_scheme(text: str):
    """Preset name or scheme JSON file; returns (scheme, deformation or None, the file's
    digest or None)."""
    if Path(text).is_file():
        what = f"scheme file {text}"
        data, digest = _read_input(text, what)
        with _invalid(what):
            return (*CutProjectScheme.from_json(json.loads(_text(data))), digest)
    return preset_scheme(text), None, None


class _ParsedPointSets:
    """Point sets parsed from input files, keyed by the SHA-256 digest of the bytes parsed,
    least recently used first, holding at most budget coordinates (points times dimension)
    in total. An entry holds the canonical read-only points, the weights only when some
    weight is not 1, and a copy of meta; get rebuilds the point set with a fresh copy of
    meta, so that no caller sees another's edits."""

    def __init__(self, budget: int):
        self.budget, self.coords = budget, 0
        self.entries = OrderedDict()  # digest -> (dim, points, weights or None, meta)

    def get(self, digest: str) -> WeightedPointSet | None:
        entry = self.entries.get(digest)
        if entry is None:
            return None
        self.entries.move_to_end(digest)
        dim, points, weights, meta = entry
        return WeightedPointSet(dim, points, weights, copy.deepcopy(meta))

    def put(self, digest: str, wps: WeightedPointSet) -> None:
        """Hold wps under digest, unless it is empty or over the budget on its own."""
        size = wps.points.size
        if not 0 < size <= self.budget:
            return
        while self.coords + size > self.budget:
            self.coords -= self.entries.popitem(last=False)[1][1].size
        weights = wps.weights if np.any(wps.weights != 1) else None
        self.entries[digest] = (wps.dim, wps.points, weights, copy.deepcopy(wps.meta))
        self.coords += size


# the point sets this process has parsed (held across main calls)
_PARSED = _ParsedPointSets(_HELD_COORDS)


def _load_pointset(path: str) -> tuple[WeightedPointSet, str]:
    """The point set in the file at path, read once, and the SHA-256 digest of its bytes.

    A point set parsed from the same bytes before is taken from _PARSED; a file that fails
    to parse is not held, so it fails the same way at every call."""
    what = f"point-set file {path}"
    data, digest = _read_input(path, what)
    wps = _PARSED.get(digest)
    if wps is None:
        with _invalid(what):
            rec = _json_record(data, what)
            del data  # not held while the point set is sorted
            wps = WeightedPointSet.from_json(rec)
        _PARSED.put(digest, wps)
    return wps, digest


def _write_pointset(wps: WeightedPointSet, args: argparse.Namespace, input_hash: str | None = None) -> None:
    _emit_json({"pointset": wps._record()}, args, input_hash)


def _load_substitution(args: argparse.Namespace) -> tuple[Substitution, str | None]:
    """The substitution --rules names, and the digest of its file (None for a preset)."""
    name = args.rules
    if Path(name).is_file():
        what = f"substitution file {name}"
        data, digest = _read_input(name, what)
        with _invalid(what):
            obj = json.loads(_text(data))
            lengths = {k: float(v) for k, v in obj["lengths"].items()}
            return Substitution(tuple(obj["alphabet"]), dict(obj["rules"]), lengths, obj["seed"]), digest
    return named_substitution(name), None


def _letters(n: int) -> int:
    """n, the length of a word to generate or read; over _LETTER_CAP it raises ResourceLimitError."""
    if n > _LETTER_CAP:
        raise ResourceLimitError(f"a word of {n} letters is over {_LETTER_CAP}")
    return n


def _resolve_word(args: argparse.Namespace, min_letters: int = 1) -> tuple[str, str | None]:
    """Word text plus the digest of the word file (None for generated words).

    Generated words are extended past --length when the command's windows need
    more letters; the fixed point is unique, so this never changes any value.
    """
    if getattr(args, "word_file", None):
        what = f"cannot read word file {args.word_file}"
        data, digest = _read_input(args.word_file, what)
        with _invalid(what):
            word = _text(data).strip()
        _letters(len(word))
        return word, digest
    if getattr(args, "rules", None):
        s, _ = _load_substitution(args)
        n = _letters(max(args.length, min_letters))
        return substitution_fixed_point(s, n)[:n], None
    raise ValidationError("pass either --word-file or --rules (with --length)")


def _parse_observable(text: str) -> Observable | None:
    """The observable in a JSON file, or None for indicator:<symbol> (built from the word)."""
    if text.startswith("indicator:"):
        return None
    if Path(text).is_file():
        with _invalid(f"observable file {text}"):
            obj = json.loads(Path(text).read_text())
            return Observable(int(obj["locality"]), {str(k): complex(v[0], v[1]) if isinstance(v, list) else complex(v) for k, v in obj["table"].items()})
    raise ValidationError(f"observable spec {text!r} is neither indicator:<symbol> nor a JSON file")


# ---------------------------------------------------------------- commands


def cmd_gen(args: argparse.Namespace) -> int:
    if args.subcommand == "lattice":
        from .pointset import lattice_points

        box = _parse_box(args.box)
        wps = lattice_points(args.dim, box, args.spacing)
        _write_pointset(wps, args)
    elif args.subcommand == "model-set":
        scheme, theta, digest = _load_scheme(args.scheme)
        box = _parse_box(args.box)
        if theta is None:
            wps = model_set(scheme, box, cap=args.cap)
        else:
            wps = deformed_model_set(scheme, theta, box, cap=args.cap)
        _write_pointset(wps, args, digest)
    else:
        s, digest = _load_substitution(args)
        if args.lengths:
            lengths = _parse_params(
                args.lengths, "tile length", "tile lengths look like a=1.618,b=1; got {item}"
            )
            s = Substitution(s.alphabet, s.rules, lengths, s.seed)
        n = _letters(args.length)
        word = substitution_fixed_point(s, n)[:n]
        wps = word_to_pointset(word, s.lengths, origin=args.origin)
        _write_pointset(wps, args, digest)
    return 0


def cmd_perturb(args: argparse.Namespace) -> int:
    wps, digest = _load_pointset(args.input)
    if args.subcommand == "percolate":
        out = percolate(wps, args.p, args.seed)
    else:
        out = displace(wps, _parse_dist(args.dist), args.seed)
    _write_pointset(out, args, digest)
    return 0


def cmd_diffract(args: argparse.Namespace) -> int:
    wps, digest = _load_pointset(args.input)
    if args.subcommand == "scan":
        box = _parse_box(args.box)
        sp = scan_spectrum(wps, box, _parse_grid(args.xi), estimator=args.estimator, threads=args.threads)
    elif args.subcommand == "peak":
        xi = _parse_vector(args.xi)
        with _invalid(f"--vanhove takes side0,growth,count, got {args.vanhove!r}"):
            side0, growth, count = _parse_floats(args.vanhove)
            count = int(count)
        if count > _CUBE_CAP:
            raise ResourceLimitError(f"--vanhove asks for {count} cubes, over {_CUBE_CAP}")
        if args.center is not None:
            center = _parse_vector(args.center)
        else:
            lo, hi = wps.bounding_box
            center = 0.5 * (lo + hi)
        cubes = cube_sequence(VanHoveCubes(center, side0, growth, count))
        xi = _vector(xi, dim=wps.dim, name="xi")
        counts, per_scale = _evaluator(wps, cubes, args.estimator)
        vals = per_scale(xi)
        sp = Spectrum(tuple(_entry(xi, vals[: k + 1], args.estimator, cube, n)
                            for k, (cube, n) in enumerate(zip(cubes, counts))))
    else:  # peaks
        box = _parse_box(args.box)
        sp, per_scale = _scan(wps, box, _parse_grid(args.xi), args.estimator, args.threads)
        refine = None
        if args.refine:

            def refine(x):
                return per_scale(_vector([x], name="xi"))[0]

        peaks = find_peaks(sp, args.floor, refine=refine)
        _emit_csv(args, digest, ["xi_1", "intensity"], [(p.xi, p.intensity) for p in peaks])
        return 0
    env = _csv_envelope(args, digest)
    _emit(lambda fh: spectrum_to_csv(sp, fh, env), args.output)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    if args.subcommand == "model-set":
        scheme, theta, digest = _load_scheme(args.scheme)
        # deformed_amplitude itself rejects --quad below 2
        if theta is not None and max(args.quad, 0) ** scheme.d_int > _QUAD_CAP:
            raise ResourceLimitError(
                f"--quad {args.quad} gives {args.quad}**{scheme.d_int} quadrature nodes, over {_QUAD_CAP}"
            )
        rng_box = _parse_box(args.range)
        cands = dual_peaks(scheme, rng_box, args.floor)
        if theta is not None:
            rows = []
            for c in cands:
                amp = deformed_amplitude(scheme, theta, c, args.quad)
                rows.append((c, abs(amp) ** 2))
        else:
            rows = [(c, c.intensity) for c in cands]
        rows.sort(key=lambda r: (-r[1], tuple(r[0].k)))
        head = [f"k_{j + 1}" for j in range(scheme.d_phys)]
        head += [f"kstar_{j + 1}" for j in range(scheme.d_int)]
        _emit_csv(args, digest, head + ["intensity"],
                  [(*c.k, *c.k_star, inten) for c, inten in rows])
    else:  # perturbed
        model = _parse_model(args.model)
        what = f"base spectrum {args.base_spectrum}"
        data, digest = _read_input(args.base_spectrum, what)
        with _invalid(what):
            sp, _ = spectrum_from_csv(_text(data).split("\n"))  # a text file's lines, less their "\n"
        rows = []
        for e in sp.entries:
            n0 = args.n0 if args.n0 is not None else e.point_count / e.box_volume
            pred = predicted_intensity(model, e.intensity, np.array(e.xi), n0)
            rows.append((*e.xi, pred["point_part"], pred["diffuse_level"]))
        head = [f"xi_{j + 1}" for j in range(sp.dim)] + ["point_part", "diffuse_level"]
        _emit_csv(args, digest, head, rows)
    return 0


def cmd_ww(args: argparse.Namespace) -> int:
    lengths = _parse_ints(args.lengths)
    offsets = _parse_ints(args.offsets)
    if not lengths or not offsets:
        raise ValidationError("--lengths and --offsets each need at least one integer")
    f = _parse_observable(args.f)
    word, digest = _resolve_word(
        args, min_letters=max(lengths) + max(offsets) + 2 * (f.locality if f else 0)
    )
    if f is None:
        f = Observable.indicator(args.f.split(":", 1)[1], sorted(set(word)))
    report = ww_report(word, f, args.alpha, lengths, offsets)
    _emit_json(report.to_json(), args, digest)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if args.subcommand == "lr":
        radii = _parse_radii(args.radii)
        word, digest = _resolve_word(args, min_letters=4 * max(radii) if radii else 1)
        result = check_linear_repetitivity(word, radii)
        payload = {
            "radii": radii,
            "constants": result["constants"],
            "C_estimate": result["C_estimate"],
        }
        _emit_json(payload, args, digest)
    else:  # subadditive
        scales = _parse_floats(args.scales)
        if args.samples * len(scales) > _SAMPLE_CAP:
            raise ResourceLimitError(
                f"--samples {args.samples} at {len(scales)} scales is {args.samples * len(scales)} "
                f"boxes, over {_SAMPLE_CAP}"
            )
        wps, digest = _load_pointset(args.input)
        xi = np.array(_parse_vector(args.xi))
        if args.domain is not None:
            domain = _parse_box(args.domain)
        else:
            lo, hi = wps.bounding_box
            domain = Box(lo, hi)

        def evaluator(box):
            return abs(fourier_average(wps, box, xi).value) * box.volume

        report = subadditive_limit(
            evaluator,
            scales,
            args.samples,
            args.seed,
            domain=domain,
        )
        _emit_json(report.to_json(), args, digest)
    return 0


# ---------------------------------------------------------------- parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared by all later ones.

    Sharing is safe because parsing keeps its state in the Namespace that each
    parse_args call makes: no action has a mutable default (there is no append
    action), set_defaults values are functions or None, and argparse (3.10 and
    later) copies a subparser's defaults into that Namespace without writing to
    the tree. Two values are fixed at the first call: the cmd_* function of each
    subcommand and the --version string, so patching cli.cmd_* or
    cli.__version__ later does not reach them (the envelope reads __version__
    at each call).
    """
    parser = argparse.ArgumentParser(
        prog="quasidiff",
        description="Aperiodic point sets and their diffraction spectra.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="output file (default: stdout)")

    gen = top.add_parser("gen", help="generate point-set files").add_subparsers(
        dest="subcommand", required=True
    )
    g = gen.add_parser("lattice", help="points of spacing*Z^d in a box")
    g.add_argument("--dim", type=int, default=1)
    g.add_argument("--box", required=True, help=_BOX_HELP)
    g.add_argument("--spacing", type=float, default=1.0)
    add_output(g)
    g.set_defaults(func=cmd_gen)
    g = gen.add_parser("model-set", help="cut-and-project model set")
    g.add_argument("--scheme", required=True, help="preset name or scheme JSON file")
    g.add_argument("--box", required=True, help=f"physical box {_BOX_HELP}")
    g.add_argument("--cap", type=int, default=10**8, help="candidate enumeration cap")
    add_output(g)
    g.set_defaults(func=cmd_gen)
    g = gen.add_parser("substitution", help="substitution chain (tile left endpoints)")
    g.add_argument("--rules", required=True, help="preset name or substitution JSON file")
    g.add_argument("--length", type=int, required=True, help="number of letters kept")
    g.add_argument("--lengths", help="tile length override, e.g. a=1.618,b=1")
    g.add_argument("--origin", type=float, default=0.0)
    add_output(g)
    g.set_defaults(func=cmd_gen)

    per = top.add_parser("perturb", help="randomized perturbations").add_subparsers(
        dest="subcommand", required=True
    )
    g = per.add_parser("percolate", help="keep each point with probability p")
    g.add_argument("--input", required=True)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    add_output(g)
    g.set_defaults(func=cmd_perturb)
    g = per.add_parser("displace", help="i.i.d. bounded random displacement")
    g.add_argument("--input", required=True)
    g.add_argument("--dist", required=True, help="kind:params or JSON file")
    g.add_argument("--seed", type=int, required=True)
    add_output(g)
    g.set_defaults(func=cmd_perturb)

    dif = top.add_parser("diffract", help="intensity estimators").add_subparsers(
        dest="subcommand", required=True
    )
    g = dif.add_parser("scan", help="spectrum over a frequency grid")
    g.add_argument("--input", required=True)
    g.add_argument("--box", required=True, help=_BOX_HELP)
    g.add_argument("--xi", required=True, help="start:stop:step or comma list")
    g.add_argument("--estimator", choices=("fourier", "autocorr"), default="fourier")
    g.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    add_output(g)
    g.set_defaults(func=cmd_diffract)
    g = dif.add_parser("peak", help="per-scale convergence at one frequency")
    g.add_argument("--input", required=True)
    g.add_argument("--xi", required=True, help="frequency (semicolon components)")
    g.add_argument("--vanhove", required=True, help="side0,growth,count")
    g.add_argument("--center", help="cube center (default: patch midpoint)")
    g.add_argument("--estimator", choices=("fourier", "autocorr"), default="fourier")
    add_output(g)
    g.set_defaults(func=cmd_diffract)
    g = dif.add_parser("peaks", help="scan, then locate local maxima")
    g.add_argument("--input", required=True)
    g.add_argument("--box", required=True, help=_BOX_HELP)
    g.add_argument("--xi", required=True)
    g.add_argument("--floor", type=float, required=True)
    g.add_argument("--refine", action="store_true", help="golden-section polish")
    g.add_argument("--estimator", choices=("fourier", "autocorr"), default="fourier")
    g.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    add_output(g)
    g.set_defaults(func=cmd_diffract)

    pre = top.add_parser("predict", help="closed-form predictions").add_subparsers(
        dest="subcommand", required=True
    )
    g = pre.add_parser("model-set", help="Bragg peak table from the dual lattice")
    g.add_argument("--scheme", required=True)
    g.add_argument("--range", required=True, help="physical frequency box lo,hi")
    g.add_argument("--floor", type=float, required=True)
    g.add_argument("--quad", type=int, default=2001, help="quadrature points (deformed schemes)")
    add_output(g)
    g.set_defaults(func=cmd_predict)
    g = pre.add_parser("perturbed", help="transform a base spectrum by a disorder model")
    g.add_argument("--model", required=True, help="model JSON file or percolation:p=0.5")
    g.add_argument("--base-spectrum", required=True)
    g.add_argument("--n0", type=float, help="density override (default: count/volume per row)")
    add_output(g)
    g.set_defaults(func=cmd_predict)

    g = top.add_parser("ww", help="Wiener-Wintner averages along a word")
    g.add_argument("--word-file")
    g.add_argument("--rules", help="substitution preset or JSON file")
    g.add_argument("--length", type=int, default=100000, help="generated word length")
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--lengths", required=True, help="comma list of average lengths")
    g.add_argument("--offsets", default="0", help="comma list of start offsets")
    g.add_argument("--f", default="indicator:a", help="indicator:<symbol> or observable JSON file")
    add_output(g)
    g.set_defaults(func=cmd_ww, subcommand=None)

    chk = top.add_parser("check", help="repetitivity and subadditive limits").add_subparsers(
        dest="subcommand", required=True
    )
    g = chk.add_parser("lr", help="linear-repetitivity constant estimate")
    g.add_argument("--word-file")
    g.add_argument("--rules")
    g.add_argument("--length", type=int, default=100000)
    g.add_argument("--radii", required=True, help="1..100 or comma list")
    add_output(g)
    g.set_defaults(func=cmd_check)
    g = chk.add_parser("subadditive", help="Fisher-sequence limit of |c^xi| F(Q)")
    g.add_argument("--input", required=True)
    g.add_argument("--xi", required=True)
    g.add_argument("--scales", required=True, help="comma list, increasing")
    g.add_argument("--samples", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--domain", help="sampling domain box (default: patch bounding box)")
    add_output(g)
    g.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"resource limit: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except NumericalDiagnosticError as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
