"""CSV row formatting for geometry.write_columns, in-process and in worker processes.

format_rows is the one formatter of every CSV row.  write_columns calls it
on the rows it writes itself; for a large table it also starts a Worker per
further share of the rows, and each worker process calls the same function.

Run as a script, this file is the worker::

    python -I -S _csvworker.py PAYLOAD_FD OUTPUT_FD

It waits for end of input on stdin, then reads from PAYLOAD_FD the pickled
row template and the share's chunks, up to a None, and writes their text to
OUTPUT_FD.  Run by path it imports only the standard library: neither the
package nor numpy.
"""

from itertools import chain, repeat


def format_rows(row: str, columns: list) -> str:
    """The CSV text of one chunk of rows.

    Each column is a list of strings, written as they are, or a (values,
    lengths) pair of floats: float.__repr__ of each value, repeated over
    its run length (lengths None: every run is one row).
    """
    texts = []
    for column in columns:
        if isinstance(column, tuple):
            values, lengths = column
            column = list(map(float.__repr__, values))
            if lengths is not None:
                column = list(chain.from_iterable(map(repeat, column, lengths)))
        texts.append(column)
    return "".join(map(row.format, *texts))


def _decode(column):
    """A chunk column as format_rows takes it, from the raw float64 values and
    int64 run lengths a worker receives (a string list comes as it is)."""
    if not isinstance(column, tuple):
        return column
    values, lengths = column
    return (memoryview(values).cast("d").tolist(),
            None if lengths is None else memoryview(lengths).cast("q").tolist())


# Characters copied per write when a worker's output is appended.
COPY_BLOCK = 1 << 16


class Worker:
    """A process that formats one share of a table into an unlinked temporary file.

    The process starts at once and waits.  send() writes the row template
    and then each chunk, its float columns as raw bytes, into an unlinked
    payload file; seal() marks the payload complete, and append_to() waits
    for the process and appends its text to a stream, or returns False when
    the process failed.  close() kills a process still running and closes
    both files.  Raises OSError when the process cannot start.
    """

    def __init__(self, row: str):
        import pickle
        import subprocess
        import sys
        import tempfile

        self._dump, self._protocol = pickle.dump, pickle.HIGHEST_PROTOCOL
        self._proc = self._payload = self._output = None
        try:
            self._payload = tempfile.TemporaryFile()
            self._output = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
            fds = (self._payload.fileno(), self._output.fileno())
            self._proc = subprocess.Popen(
                [sys.executable, "-I", "-S", __file__, *map(str, fds)],
                stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, pass_fds=fds,
            )
        except OSError:
            self.close()
            raise
        self.send(row)

    def send(self, item) -> None:
        self._dump(item, self._payload, self._protocol)

    def seal(self) -> None:
        self.send(None)
        self._payload.flush()
        self._proc.stdin.close()

    def append_to(self, stream) -> bool:
        if self._proc.wait() != 0:
            return False
        self._output.seek(0)
        while block := self._output.read(COPY_BLOCK):
            stream.write(block)
        return True

    def close(self) -> None:
        if self._proc is not None:
            self._proc.stdin.close()
            if self._proc.poll() is None:
                self._proc.kill()
            self._proc.wait()
        for file in (self._payload, self._output):
            if file is not None:
                file.close()


if __name__ == "__main__":
    import pickle
    import sys

    sys.stdin.buffer.read()  # end of input: the payload is complete
    with open(int(sys.argv[1]), "rb") as payload, \
            open(int(sys.argv[2]), "w", encoding="utf-8", newline="") as output:
        payload.seek(0)
        row = pickle.load(payload)
        while (chunk := pickle.load(payload)) is not None:
            output.write(format_rows(row, list(map(_decode, chunk))))
