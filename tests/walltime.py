"""Compare records.csv texts without their wall-clock column."""


def mask_wall_time(text: str) -> str:
    """Zero the hardware-dependent last column for byte comparisons."""
    out = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("n,"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0] + ",0")
    return "\n".join(out)
