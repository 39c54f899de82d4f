/*
 * compress -- an LZW-style compression utility.
 *
 * Mirrors SPEC92 "compress" for the reproduction suite: reads text on
 * stdin, compresses it with a hash-table LZW coder, decompresses the
 * code stream again to verify the round trip, and prints statistics.
 *
 * Deliberately structured as exactly 16 functions, with the run time
 * dominated by about 4 of them (the property Figure 10 of the paper
 * relies on for its selective-optimization experiment).
 */

#define MAX_INPUT   8192
#define TABLE_SIZE  1024
#define DICT_SIZE   1024
#define FIRST_CODE  256
#define NO_CODE     (-1)

char input_buf[MAX_INPUT];
int  input_len;

int codes[MAX_INPUT];
int code_count;
int out_bits;

int dict_prefix[DICT_SIZE];
int dict_suffix[DICT_SIZE];
int next_code;

int hash_code_tab[TABLE_SIZE];
int hash_prefix_tab[TABLE_SIZE];
int hash_suffix_tab[TABLE_SIZE];

char expand_buf[MAX_INPUT];
char check_buf[MAX_INPUT];
int  check_len;

/* 1 -- error exit (the "error calls are unlikely" idiom) */
void fatal(char *msg)
{
    puts(msg);
    exit(1);
}

/* 2 -- slurp stdin into input_buf */
void read_input(void)
{
    int c;
    input_len = 0;
    while ((c = getchar()) != -1) {
        if (input_len >= MAX_INPUT - 1)
            fatal("input too large");
        input_buf[input_len++] = (char)c;
    }
    input_buf[input_len] = 0;
}

/* 3 -- open-addressing probe start for a (prefix, suffix) pair */
int hash_slot(int prefix, int suffix)
{
    int h = (prefix * 31 + suffix * 7) % TABLE_SIZE;
    if (h < 0)
        h += TABLE_SIZE;
    return h;
}

/* 4 -- find the code for prefix+suffix, or NO_CODE */
int table_lookup(int prefix, int suffix)
{
    int slot = hash_slot(prefix, suffix);
    while (hash_code_tab[slot] != NO_CODE) {
        if (hash_prefix_tab[slot] == prefix &&
            hash_suffix_tab[slot] == suffix)
            return hash_code_tab[slot];
        slot++;
        if (slot == TABLE_SIZE)
            slot = 0;
    }
    return NO_CODE;
}

/* 5 -- insert a new pair into the hash table */
void table_insert(int prefix, int suffix, int code)
{
    int slot = hash_slot(prefix, suffix);
    while (hash_code_tab[slot] != NO_CODE) {
        slot++;
        if (slot == TABLE_SIZE)
            slot = 0;
    }
    hash_code_tab[slot] = code;
    hash_prefix_tab[slot] = prefix;
    hash_suffix_tab[slot] = suffix;
}

/* 6 -- extend the decoder dictionary */
int dict_add(int prefix, int suffix)
{
    if (next_code >= DICT_SIZE)
        return NO_CODE;
    dict_prefix[next_code] = prefix;
    dict_suffix[next_code] = suffix;
    next_code++;
    return next_code - 1;
}

/* 7 -- width in bits of the current code space */
int code_width(void)
{
    int width = 9;
    int limit = 512;
    while (limit < next_code) {
        limit *= 2;
        width++;
    }
    return width;
}

/* 8 -- append one output code */
void emit(int code)
{
    if (code_count >= MAX_INPUT)
        fatal("code buffer overflow");
    codes[code_count++] = code;
    out_bits += code_width();
}

/* 9 -- one compression step: fold the next byte into the prefix,
 * emitting a code and growing the dictionary when the pair is new.
 * Called once per input byte; with table_lookup it dominates run
 * time, mirroring SPEC compress's per-character helpers. */
int compress_step(int prefix, int ch)
{
    int found = table_lookup(prefix, ch);
    if (found != NO_CODE)
        return found;
    emit(prefix);
    if (next_code < DICT_SIZE) {
        table_insert(prefix, ch, next_code);
        dict_add(prefix, ch);
    }
    return ch;
}

/* 10 -- the compressor driver loop */
void compress_input(void)
{
    int prefix, i;
    code_count = 0;
    out_bits = 0;
    for (i = 0; i < TABLE_SIZE; i++)
        hash_code_tab[i] = NO_CODE;
    next_code = FIRST_CODE;
    if (input_len == 0)
        return;
    prefix = input_buf[0] & 0xff;
    for (i = 1; i < input_len; i++)
        prefix = compress_step(prefix, input_buf[i] & 0xff);
    emit(prefix);
}

/* 11 -- expand one code into expand_buf; returns its length */
int expand_code(int code, char *out)
{
    int length = 0;
    int i;
    char tmp[512];
    while (code >= FIRST_CODE && length < 512) {
        tmp[length++] = (char)dict_suffix[code];
        code = dict_prefix[code];
    }
    if (length >= 512)
        fatal("expansion too long");
    tmp[length++] = (char)code;
    for (i = 0; i < length; i++)
        out[i] = tmp[length - 1 - i];
    return length;
}

/* 12 -- one decode step: expand a code, append the bytes, grow the
 * decoder dictionary.  Returns the new decode_next counter. */
int decode_step(int code, int previous, int decode_next)
{
    int j, length;
    if (code >= decode_next) {
        /* The KwKwK case: code not yet in the dictionary. */
        length = expand_code(previous, expand_buf);
        expand_buf[length] = expand_buf[0];
        length++;
    } else {
        length = expand_code(code, expand_buf);
    }
    if (check_len + length > MAX_INPUT)
        fatal("decode overflow");
    for (j = 0; j < length; j++)
        check_buf[check_len++] = expand_buf[j];
    if (previous != NO_CODE && decode_next < DICT_SIZE) {
        dict_prefix[decode_next] = previous;
        dict_suffix[decode_next] = expand_buf[0];
        decode_next++;
    }
    return decode_next;
}

/* 13 -- decode the code stream and compare with the original */
void decompress_check(void)
{
    int i;
    int previous = NO_CODE;
    int decode_next = FIRST_CODE;
    check_len = 0;
    for (i = 0; i < code_count; i++) {
        decode_next = decode_step(codes[i], previous, decode_next);
        previous = codes[i];
    }
    if (check_len != input_len)
        fatal("round trip length mismatch");
    for (i = 0; i < input_len; i++)
        if (check_buf[i] != input_buf[i])
            fatal("round trip content mismatch");
}

/* 14 -- order-sensitive checksum of a buffer */
int checksum(char *buf, int length)
{
    int sum = 0;
    int i;
    for (i = 0; i < length; i++)
        sum = (sum * 131 + (buf[i] & 0xff)) & 0xffffff;
    return sum;
}

/* 15 -- report */
void print_stats(void)
{
    int in_bits = input_len * 8;
    int ratio = in_bits == 0 ? 100 : (out_bits * 100) / in_bits;
    printf("in=%d codes=%d bits=%d ratio=%d%%\n",
           input_len, code_count, out_bits, ratio);
    printf("checksum=%d\n", checksum(input_buf, input_len));
}

/* 16 -- driver */
int main(void)
{
    read_input();
    if (input_len == 0)
        fatal("empty input");
    compress_input();
    decompress_check();
    print_stats();
    return 0;
}
