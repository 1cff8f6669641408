"""Write ``src/rydgate/_ziggurat.py``, the tables of the bulk Monte-Carlo draws, from the installed NumPy.

``robustness._noise_draws`` computes PCG64's first two outputs and NumPy's 256-layer ziggurat
(Marsaglia & Tsang, JSS 5(8), 2000) on whole arrays. NumPy's Python API exposes neither the LCG
multiplier nor the ziggurat tables, and the tables do not follow from the published recurrence
to the last bit, so each entry is probed from ``Generator.standard_normal``:

- the multiplier is the state one raw step takes 1 to, with an increment of 0;
- a ``PCG64.state`` whose next output is a chosen word r is one LCG step, inverted with the
  multiplier's inverse mod 2**128, before a state whose high word is 0 or 1 (no rotation);
- for r = idx | sign << 8 | rabs << 9, the draw is rabs * wi[idx], so rabs = 1 reads wi[idx];
- the draw takes the fast path, rabs < ki[idx], exactly when the state advanced one step, so
  ki[idx] is found by bisection. Where rabs = 1 is slow (idx 1), the increment makes the next
  output 0, a uniform of 0, which the slow path accepts.

Run ``python tests/make_ziggurat_tables.py`` after a NumPy upgrade; CI runs it and fails if the
committed module changes. ``tests/test_robustness.py`` re-probes every entry.
"""

import pathlib

import numpy as np
from numpy.random import PCG64, Generator

TABLES = pathlib.Path(__file__).resolve().parents[1] / "src" / "rydgate" / "_ziggurat.py"
_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1


def _multiplier():
    generator = PCG64()
    generator.state = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 0}, "has_uint32": 0, "uinteger": 0}
    generator.random_raw()
    return generator.state["state"]["state"]


MULTIPLIER = _multiplier()
_INVERSE = pow(MULTIPLIER, -1, 2**128)


def probe(word):
    """(x, fast): ``standard_normal()`` of a generator whose next output is ``word``, and whether
    it drew no more than that output."""
    high = 1 - (word & 1)  # an odd stepped state, so that the increment below is odd
    stepped = high << 64 | (word ^ high)  # XSL-RR: high ^ low, rotated by high >> 58 = 0
    inc = -stepped * MULTIPLIER & _MASK128  # the step after it reaches state 0, output 0
    generator = PCG64()
    state = (stepped - inc) * _INVERSE & _MASK128
    generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    x = Generator(generator).standard_normal()
    return x, generator.state["state"]["state"] == stepped


def tables():
    """(ki, wi): the smallest slow rabs of each layer, and its width, 256 entries each."""
    ki, wi = [], []
    for idx in range(256):
        low, high = 0, 2**52  # the smallest slow rabs lies in [low, high]; 2**52 if none is slow
        while low < high:
            mid = (low + high) // 2
            if probe(mid << 9 | idx)[1]:
                low = mid + 1
            else:
                high = mid
        ki.append(low)
        wi.append(probe(1 << 9 | idx)[0])
    return ki, wi


def _hex_array(values, dtype):
    """Source of an array of ``values``: big-endian hex words, four a line, which compile faster than 256 literals."""
    words = np.array(values, dtype=dtype).tobytes().hex(" ", 8).split()
    lines = "".join(f'    "{" ".join(words[i : i + 4])} "\n' for i in range(0, len(words), 4))
    return f'np.frombuffer(bytes.fromhex(\n{lines}), "{dtype}").astype(np.{np.dtype(dtype).newbyteorder("=")})'


def source():
    ki, wi = tables()
    return (
        '"""PCG64\'s multiplier and NumPy\'s standard-normal ziggurat tables, probed from the installed NumPy.\n\n'
        "Generated by tests/make_ziggurat_tables.py; do not edit. ``robustness._noise_draws`` takes a\n"
        "draw rabs * WI[idx] where rabs < KI[idx]. Each hex word is one entry, KI's an integer and WI's\n"
        "the bits of a float64.\n"
        '"""\n\n'
        "import numpy as np\n\n"
        f"MULTIPLIER = {MULTIPLIER:#x}\n"
        f"KI = {_hex_array(ki, '>u8')}\n"
        f"WI = {_hex_array(wi, '>f8')}\n"
    )


if __name__ == "__main__":
    TABLES.write_text(source())
